(** Differential gate for the batched routing kernel.

    Replays (destination, attacker) pairs through three independent
    implementations of route computation and demands bit-identical
    outcomes:

    - {!Routing.Engine.compute} — the one-lane face of the batched
      production kernel ({!Routing.Batch}), exercised both with fresh
      buffers and with a reused workspace;
    - {!Routing.Reference.compute} — the pre-change kernel, preserved
      verbatim;
    - {!Routing.Staged.compute} — the Appendix-B executable
      specification, where its contract applies (Standard LP model,
      Bounds tiebreak, attacker claim 1; its representative next hop is
      not compared).

    Any field-level disagreement is a ["kernel/divergence"] error naming
    the first AS and field that differ. *)

val mismatch :
  ?parents:bool ->
  want:Routing.Outcome.t ->
  got:Routing.Outcome.t ->
  unit ->
  string option
(** First field-level disagreement between two outcomes, rendered for a
    diagnostic message; [None] when bit-identical.  [parents] (default
    true) includes the routing-tree parent in the comparison.  Exposed
    for the other passes (the allocation gate reuses it to identity-gate
    its measured loops). *)

val analyze :
  ?attacker_claim:int ->
  Topology.Graph.t ->
  Routing.Policy.t list ->
  Deployment.t ->
  (int * int option) array ->
  int * Diagnostic.t list
(** [analyze g policies dep pairs] returns [(items, diagnostics)] where
    [items] counts the engine runs that were compared. *)

val analyze_batch :
  ?attacker_claim:int ->
  ?tamper:(lane:int -> Routing.Outcome.t -> unit) ->
  Topology.Graph.t ->
  Routing.Policy.t list ->
  Deployment.t ->
  (int * int array) array ->
  int * Diagnostic.t list
(** [analyze_batch g policies dep batches] decodes every lane of every
    batched solve ({!Routing.Batch}) of the [(dst, attackers)] batches
    and compares it field-by-field against a
    {!Routing.Reference.compute} of the same pair, under every policy
    and both tiebreaks.  Each batch is also solved as a mixed word: a
    {!Routing.Batch.no_attacker} lane 0 (held to a Reference solve with
    no attacker) followed by up to 62 of its attackers.  A disagreement
    is a ["kernel/batch-divergence"] error pinpointing the first
    divergent (destination, word, bit) and decoding both packed lanes.
    [items] counts compared lanes.

    [tamper ~lane outcome] mutates a decoded lane before comparison —
    the false-negative mutants inject batch-kernel bugs through it. *)

val analyze_partition :
  ?fault:Metric.Partition.fault ->
  Topology.Graph.t ->
  (int * int array) array ->
  int * Diagnostic.t list
(** [analyze_partition g batches] compares
    {!Metric.Partition.count_batch} of every [(dst, attackers)] word
    against per-pair {!Metric.Partition.count} lane by lane, under
    security 1st, 2nd and 3rd and security 2nd with LP1, LP2 and LP60.
    Each word is classified by one call per policy and by one call
    with all six policies (one shared baseline solve per LP variant).
    A further all-policy call splits the sources into three groups
    plus non-sources and is held per group to
    {!Metric.Partition.count_among}.  Both sides must also fail alike
    (LPk on a cyclic hierarchy).  A disagreement is a
    ["kernel/partition-divergence"] error naming the policy, the call,
    destination, attacker word and bit with both counts.  [items]
    counts compared lanes; [fault] plants a bug in the batched side
    for the mutant guard. *)
