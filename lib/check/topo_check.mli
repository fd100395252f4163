(** Differential checks for the off-heap topology layer (rules
    [topo/csr-mismatch] and [topo/snapshot]):

    - the Bigarray CSR must agree with the adjacency-table accessors on
      every row segment;
    - a binary snapshot ({!Topology.Serial.save_snapshot}) must
      round-trip bit-identically, and a one-byte payload corruption must
      be rejected by the digest. *)

val analyze : Topology.Graph.t -> int * Diagnostic.t list
(** [analyze g] returns (items covered, diagnostics). *)
