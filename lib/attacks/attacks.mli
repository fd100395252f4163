(** The threat-model strategy space of Section 3.

    The paper's evaluation fixes one attacker strategy — announcing the
    bogus one-hop path ["m d"] via legacy BGP — because it is both simple
    and, with origin authentication deployed, essentially the strongest
    available (finding the optimal set of announcements is NP-hard, and
    shorter claims attract more sources).  This module makes the
    surrounding strategy space explicit, so the motivation can be
    reproduced quantitatively:

    - classic prefix and subprefix hijacks, which origin validation (our
      {!Rpki} substrate) detects and filters;
    - fabricated paths of any claimed length, which pass origin
      validation and are only blunted by path validation (S*BGP). *)

type strategy =
  | Prefix_hijack
      (** Originate the victim's exact prefix (claimed path length 0). *)
  | Subprefix_hijack
      (** Originate a more-specific prefix of the victim's.  When not
          filtered, longest-prefix forwarding sends {e every} source with
          any route toward the attacker, regardless of BGP preferences. *)
  | Fabricated_path of int
      (** Announce, via legacy BGP, a fabricated path of the given
          claimed length ending at the victim ([Fabricated_path 1] is the
          paper's ["m d"] attack).  Must be >= 1. *)

val strategy_name : strategy -> string

val passes_origin_validation : strategy -> bool
(** Whether the bogus announcement survives RFC 6483 origin validation
    (checked against an actual ROA/announcement encoding via {!Rpki};
    see the implementation and tests). *)

type result = {
  strategy : strategy;
  filtered : bool;
      (** origin validation dropped the announcement before route
          selection *)
  happy_lb : int;
  happy_ub : int;
  sources : int;
}

val happy_fraction : result -> float * float

val simulate :
  ?origin_auth:bool ->
  ?ws:Routing.Batch.Workspace.t ->
  Topology.Graph.t ->
  Routing.Policy.t ->
  Deployment.t ->
  dst:int ->
  attackers:int array ->
  strategy ->
  result array
(** [simulate g policy dep ~dst ~attackers strategy] counts happy
    sources toward [dst] under the attack of each of [attackers]
    (element [l] for [attackers.(l)]).  [origin_auth] (default [true],
    the paper's setting) filters announcements that fail origin
    validation, turning the hijacks into no-ops read off one
    normal-conditions solve.  An unfiltered prefix hijack or fabricated
    path is one batched solve ({!Routing.Batch}, served by [ws]) with
    the strategy's claimed length.  An unfiltered subprefix hijack
    bypasses route selection: a source stays happy only if it has no
    perceivable route to the attacker at all.

    Raises [Invalid_argument] for [Fabricated_path k] with [k < 1], an
    id out of range, an attacker equal to [dst], or — for an unfiltered
    prefix hijack or fabricated path — a lane count outside
    [1 .. Routing.Batch.max_lanes]. *)
