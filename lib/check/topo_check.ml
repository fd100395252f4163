(* Differential checks for the off-heap topology layer:

   - the Bigarray CSR and the adjacency-table accessors must describe
     the same graph (they are two lazily-materialized views of one
     value; a divergence means one materialization path is wrong);
   - a binary snapshot must round-trip bit-identically, and a corrupted
     payload must be rejected (the digest gate actually fires). *)

module D = Diagnostic
module G = Topology.Graph

(* ---- CSR vs adjacency tables ------------------------------------- *)

let csr_pass g =
  let n = G.n g in
  let c = G.csr g in
  let xs = c.G.Csr.xs and adj = c.G.Csr.adj in
  let diags = ref [] in
  let bad v msg =
    diags := !diags @ [ D.error ~rule:"topo/csr-mismatch" ~subjects:[ v ] msg ]
  in
  let seg lo hi = Array.init (hi - lo) (fun i -> adj.{lo + i}) in
  for v = 0 to n - 1 do
    let check_seg name table lo hi =
      if table <> seg lo hi then
        bad v
          (Printf.sprintf
             "CSR %s segment [%d, %d) disagrees with the adjacency table"
             name lo hi)
    in
    check_seg "customer" (G.customers g v) xs.{3 * v} xs.{(3 * v) + 1};
    check_seg "peer" (G.peers g v) xs.{(3 * v) + 1} xs.{(3 * v) + 2};
    check_seg "provider" (G.providers g v) xs.{(3 * v) + 2} xs.{(3 * v) + 3}
  done;
  (n, !diags)

(* ---- Snapshot round-trip ------------------------------------------ *)

let graphs_identical a b =
  let ints_equal (x : G.ints) (y : G.ints) =
    Bigarray.Array1.dim x = Bigarray.Array1.dim y
    &&
    let ok = ref true in
    for i = 0 to Bigarray.Array1.dim x - 1 do
      if x.{i} <> y.{i} then ok := false
    done;
    !ok
  in
  let ca = G.csr a and cb = G.csr b in
  G.n a = G.n b
  && G.num_customer_provider_edges a = G.num_customer_provider_edges b
  && G.num_peer_edges a = G.num_peer_edges b
  && ints_equal ca.G.Csr.xs cb.G.Csr.xs
  && ints_equal ca.G.Csr.adj cb.G.Csr.adj

let with_temp_snapshot f =
  let path = Filename.temp_file "sbgp-check" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let snapshot_pass g =
  let diags = ref [] in
  let fail msg =
    diags := !diags @ [ D.error ~rule:"topo/snapshot" msg ]
  in
  with_temp_snapshot (fun path ->
      Topology.Serial.save_snapshot path g;
      (match Topology.Serial.load_snapshot path with
      | g' ->
          if not (graphs_identical g g') then
            fail "snapshot round-trip is not bit-identical to the source graph"
      | exception Failure msg ->
          fail ("snapshot round-trip failed to load: " ^ msg));
      (* The digest must catch payload corruption: flip one byte past the
         header and demand a load failure. *)
      let size = (Unix.stat path).Unix.st_size in
      if size > Topology.Serial.snapshot_payload_offset then begin
        let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let pos = Topology.Serial.snapshot_payload_offset in
            ignore (Unix.lseek fd pos Unix.SEEK_SET);
            let b = Bytes.create 1 in
            ignore (Unix.read fd b 0 1);
            Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
            ignore (Unix.lseek fd pos Unix.SEEK_SET);
            ignore (Unix.write fd b 0 1));
        match Topology.Serial.load_snapshot path with
        | _ -> fail "corrupted snapshot payload loaded without a digest error"
        | exception Failure _ -> ()
      end);
  (2, !diags)

let analyze g =
  let citems, cdiags = csr_pass g in
  let sitems, sdiags = snapshot_pass g in
  (citems + sitems, cdiags @ sdiags)
