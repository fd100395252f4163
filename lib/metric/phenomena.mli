(** Protocol downgrades, collateral benefits and damages, and the
    root-cause decomposition of Section 6 / Figure 16.

    All happiness here uses the pessimistic (lower-bound) tiebreak
    semantics of Section 4.1: an AS facing equally-good legitimate and
    bogus routes counts as unhappy.  This matches the paper's Section 6
    examples (e.g. Figure 15's collateral benefit arises from a tiebreak)
    and its "lower bound on collateral benefits" framing.

    Every quantity is folded per attacker lane off a {!word}: one
    batched solve ({!Routing.Batch}) of a destination, normal conditions
    and up to {!max_attackers} attackers at once, frozen into per-AS
    lane masks that outlive the workspace.  Each per-lane result equals
    the per-pair definition over separate normal and attacked solves,
    which test/helpers keeps as the qcheck suite's oracle. *)

type word
(** One destination under one policy and deployment: lane 0 under
    normal conditions, lane [l + 1] under attacker [l]. *)

val max_attackers : int
(** Attackers per word: [Routing.Batch.max_lanes - 1] = 62, one lane
    being the normal one. *)

val word :
  ?ws:Routing.Batch.Workspace.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  dst:int ->
  attackers:int array ->
  word
(** [word g policy dep ~dst ~attackers] runs one batched solve holding
    the normal lane and every attacker and keeps, per AS and lane,
    whether the route is secure and whether it is happy (lower bound),
    plus the normal lane's routing tree.  [ws] serves the solve.
    With no attackers the word holds the normal lane alone.  Raises
    [Invalid_argument] if there are more than {!max_attackers}
    attackers, an id is out of range or an attacker equals [dst]. *)

val secure_routes : word -> int
(** ASes other than the destination holding a secure route under
    normal conditions. *)

type downgrade = {
  secure_normal : int;  (** sources with a secure route under normal conditions *)
  downgraded : int;     (** of those, how many lose route security under attack *)
  secure_after : int;   (** of those, how many keep a secure route under attack *)
  sources : int;
}

val downgrades : word -> downgrade array
(** Per attacker of the word, compare the normal lane with the attack
    lane (Appendix F.1).  Sources whose normal (representative) route
    already passes through the attacker are excluded from
    [secure_normal] — Theorem 3.1 exempts them, since the attacker
    attracts their traffic without attacking. *)


type root_cause = {
  sources : int;
  rc_secure_normal : int;   (** secure routes under normal conditions *)
  rc_downgraded : int;      (** secure routes lost to protocol downgrades *)
  rc_wasted : int;          (** secure routes kept by sources that were
                                happy already with S = {} *)
  rc_protecting : int;      (** secure routes kept by sources unhappy with
                                S = {} — the only class of secure routes
                                that can raise the metric *)
  rc_benefit : int;         (** insecure sources: unhappy with S = {},
                                happy with S *)
  rc_damage : int;          (** insecure sources: happy with S = {},
                                unhappy with S *)
  rc_happy_base : int;      (** happy sources, S = {} *)
  rc_happy_dep : int;       (** happy sources, deployment S *)
}

val root_cause : base:word -> word -> root_cause array
(** Per attacker: normal conditions and attack under the word's S, and
    the attack under S = {} read off [base], a word of the same
    destination and attackers solved with the empty deployment.  At
    S = {} nothing is signed, so a [base] solved under any model of the
    same local-preference variant serves.  Raises [Invalid_argument]
    if the two words do not hold the same lanes. *)

val root_cause_zero : root_cause
val root_cause_add : root_cause -> root_cause -> root_cause

type collateral = { benefit : int; damage : int; insecure_sources : int }

val collateral : baseline:word -> word -> collateral array
(** Per attacker: collateral effects on sources that are insecure in
    the word's deployment, comparing against [baseline], a word of the
    same lanes under a smaller deployment (Section 6.1 considers the
    empty one).  Raises [Invalid_argument] unless the words hold the
    same lanes and [baseline]'s deployment is a subset of the word's. *)
