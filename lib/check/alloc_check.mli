(** Runtime allocation gate (`sbgp check --alloc`).

    Measures [Gc.minor_words] per (destination, attacker) pair for the
    scalar, batched and reference kernels with reused workspaces, and
    compares against recorded budgets; every measured loop is
    identity-gated against fresh-buffer computation, and a cold-vs-warm
    probe of the shared metric cache demands bit-identical [H].  This is
    the dynamic complement of the static ast/hot-alloc and
    ast/cache-pure rules: it covers inlining, unboxing and
    reference-elimination effects the typed-AST walk cannot see
    (DESIGN.md §16).

    Rules: [alloc/minor-budget], [alloc/identity],
    [alloc/cache-consistency]. *)

type budgets = { scalar : float; batch : float; reference : float }

val default_budgets : budgets
(** Minor words per pair ([scalar], [batch]) and per pair per AS
    ([reference] — the list-based reference kernel allocates O(n) per
    pair by design, so only the normalized rate is scale-free), with
    ~2x headroom over the measured steady state. *)

val analyze :
  ?budgets:budgets ->
  ?pairs:int ->
  ?tamper:(unit -> unit) ->
  ?taint:(Metric.H_metric.bounds -> Metric.H_metric.bounds) ->
  seed:int ->
  Topology.Graph.t ->
  Routing.Policy.t list ->
  int * Diagnostic.t list
(** [analyze ~seed g policies] returns [(items, diags)], measured
    against [budgets] (default {!default_budgets}).  Runs
    single-domain; the first policy drives the measurement.  [tamper] is
    invoked once per measured scalar pair and [taint] rewrites the warm
    cache-probe result — both exist for the false-negative mutants. *)
