(* Topology: graph construction, tiers, serialization, IXP augmentation. *)

open Core
open Test_helpers

let test_graph_basics () =
  let g = graph 4 [ c2p 1 0; c2p 2 0; p2p 1 2; c2p 3 1 ] in
  Alcotest.(check int) "n" 4 (Graph.n g);
  Alcotest.(check (array int)) "customers of 0" [| 1; 2 |] (Graph.customers g 0);
  Alcotest.(check (array int)) "providers of 3" [| 1 |] (Graph.providers g 3);
  Alcotest.(check (array int)) "peers of 1" [| 2 |] (Graph.peers g 1);
  Alcotest.(check int) "c2p edges" 3 (Graph.num_customer_provider_edges g);
  Alcotest.(check int) "p2p edges" 1 (Graph.num_peer_edges g);
  Alcotest.(check int) "degree of 1" 3 (Graph.degree g 1);
  Alcotest.(check bool) "3 is a stub" true (Graph.is_stub g 3);
  Alcotest.(check bool) "0 is not a stub" false (Graph.is_stub g 0);
  Alcotest.(check bool) "acyclic" true (Graph.acyclic_hierarchy g);
  Alcotest.(check bool) "connected" true (Graph.connected g)

let test_graph_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edges: self loop")
    (fun () -> ignore (graph 2 [ c2p 1 1 ]))

let test_graph_rejects_conflict () =
  Alcotest.check_raises "conflict"
    (Invalid_argument
       "Graph.of_edges: conflicting relationships for pair (0, 1)") (fun () ->
      ignore (graph 2 [ c2p 0 1; p2p 0 1 ]))

let test_graph_dedups () =
  let g = graph 2 [ c2p 0 1; c2p 0 1 ] in
  Alcotest.(check int) "single edge" 1 (Graph.num_customer_provider_edges g)

let test_graph_out_of_range () =
  Alcotest.check_raises "range" (Invalid_argument "Graph.of_edges: AS 5 out of range")
    (fun () -> ignore (graph 2 [ c2p 0 5 ]))

let test_cycle_detection () =
  let g = graph 3 [ c2p 0 1; c2p 1 2; c2p 2 0 ] in
  Alcotest.(check bool) "cyclic hierarchy" false (Graph.acyclic_hierarchy g)

let test_disconnected () =
  let g = graph 4 [ c2p 0 1; c2p 2 3 ] in
  Alcotest.(check bool) "disconnected" false (Graph.connected g)

let test_edges_roundtrip =
  qtest "of_edges/edges round trip" ~count:200 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let g2 = Graph.of_edges ~n:(Graph.n g) (Graph.edges g) in
      List.sort compare (Graph.edges g) = List.sort compare (Graph.edges g2))

let test_serial_roundtrip =
  qtest "serialization round trip" ~count:200 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:30 in
      let g2 = Serial.of_string (Serial.to_string g) in
      Graph.n g = Graph.n g2
      && List.sort compare (Graph.edges g) = List.sort compare (Graph.edges g2))

let test_serial_format () =
  let g = graph 3 [ c2p 1 0; p2p 1 2 ] in
  let s = Serial.to_string g in
  Alcotest.(check string) "format" "# n=3\n0|1|-1\n1|2|0\n" s

let test_serial_errors () =
  Alcotest.check_raises "bad relationship"
    (Failure "Serial: line 1: unknown relationship \"7\"") (fun () ->
      ignore (Serial.of_string "1|2|7"));
  Alcotest.check_raises "bad id" (Failure "Serial: line 1: non-integer AS id")
    (fun () -> ignore (Serial.of_string "a|2|0"))

(* Each defect Graph.of_edges would reject surfaces as the documented
   line-numbered Failure, never as Invalid_argument. *)
let test_serial_edge_errors () =
  let fails msg text =
    Alcotest.check_raises msg (Failure msg) (fun () ->
        ignore (Serial.of_string text))
  in
  fails "Serial: line 2: AS 3 out of range [0, 3) set by the header on line 1"
    "# n=3\n0|3|-1\n";
  fails "Serial: line 1: negative AS id -2" "-2|1|0\n";
  fails "Serial: line 2: self loop at AS 1" "0|1|0\n1|1|-1\n";
  fails "Serial: line 2: AS pair 1-0 conflicts with the relationship on line 1"
    "0|1|-1\n1|0|-1\n";
  fails "Serial: line 3: AS pair 1-2 conflicts with the relationship on line 1"
    "2|1|0\n0|1|0\n1|2|-1\n";
  fails "Serial: line 1: negative AS count -4" "# n=-4\n";
  Alcotest.check_raises "remapped self loop"
    (Failure "Serial: line 1: self loop at AS 7") (fun () ->
      ignore (Serial.of_string_remapped "7|7|0\n"));
  (* A repeated identical edge (either spelling of a peering) is fine. *)
  let g = Serial.of_string "0|1|-1\n0|1|-1\n2|1|0\n1|2|0\n" in
  Alcotest.(check int) "duplicates collapse" 2
    (Graph.num_customer_provider_edges g + Graph.num_peer_edges g)

(* Byte-mutated serializations: either a graph or the documented
   Failure — no other exception may escape either parser. *)
let test_serial_mutation =
  qtest "byte-mutated text graphs raise only Failure" ~count:3000 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:12 in
      let b = Bytes.of_string (Serial.to_string g) in
      let alphabet = "0123456789|-#n= \nx" in
      for _ = 0 to Rng.int rng 3 do
        Bytes.set b
          (Rng.int rng (Bytes.length b))
          alphabet.[Rng.int rng (String.length alphabet)]
      done;
      let text = Bytes.to_string b in
      let only_failure f =
        match f text with
        | _ -> true
        | exception Failure _ -> true
        | exception e ->
            Printf.eprintf "escaped %s on %S\n%!" (Printexc.to_string e) text;
            false
      in
      only_failure (fun t -> ignore (Serial.of_string t))
      && only_failure (fun t -> ignore (Serial.of_string_remapped t)))

let test_serial_remapped () =
  (* Real-world style: sparse ASNs and a trailing source column. *)
  let text = "# comment\n3356|21740|-1|bgp\n174|3356|0|mlp\n3356|1299|-1\n" in
  let g, asns = Serial.of_string_remapped text in
  Alcotest.(check int) "four ASes" 4 (Graph.n g);
  Alcotest.(check (array int)) "asn order" [| 3356; 21740; 174; 1299 |] asns;
  let id asn =
    let found = ref (-1) in
    Array.iteri (fun i a -> if a = asn then found := i) asns;
    !found
  in
  Alcotest.(check bool) "21740 customer of 3356" true
    (Array.exists (( = ) (id 3356)) (Graph.providers g (id 21740)));
  Alcotest.(check bool) "174 peers 3356" true
    (Array.exists (( = ) (id 174)) (Graph.peers g (id 3356)))

let test_serial_extra_fields () =
  let g = Serial.of_string "0|1|-1|extra|fields\n" in
  Alcotest.(check int) "edge parsed" 1 (Graph.num_customer_provider_edges g)

let test_serial_file_roundtrip () =
  let g = graph 3 [ c2p 1 0; c2p 2 0 ] in
  let path = Filename.temp_file "sbgp_test" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serial.save path g;
      let g2 = Serial.load path in
      Alcotest.(check int) "n" 3 (Graph.n g2);
      Alcotest.(check bool) "edges equal" true
        (List.sort compare (Graph.edges g) = List.sort compare (Graph.edges g2)))

(* ---- Binary snapshots --------------------------------------------- *)

let ints_equal (x : Graph.ints) (y : Graph.ints) =
  Bigarray.Array1.dim x = Bigarray.Array1.dim y
  &&
  let ok = ref true in
  for i = 0 to Bigarray.Array1.dim x - 1 do
    if x.{i} <> y.{i} then ok := false
  done;
  !ok

let csr_identical a b =
  let ca = Graph.csr a and cb = Graph.csr b in
  Graph.n a = Graph.n b
  && ints_equal ca.Graph.Csr.xs cb.Graph.Csr.xs
  && ints_equal ca.Graph.Csr.adj cb.Graph.Csr.adj

let with_snapshot_file f =
  let path = Filename.temp_file "sbgp_test" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_snapshot_roundtrip =
  qtest "snapshot round trip is bit-identical" ~count:100 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:40 in
      with_snapshot_file (fun path ->
          Serial.save_snapshot path g;
          let g2 = Serial.load_snapshot path in
          csr_identical g g2
          && Graph.num_customer_provider_edges g
             = Graph.num_customer_provider_edges g2
          && Graph.num_peer_edges g = Graph.num_peer_edges g2
          && Graph.version g <> Graph.version g2
          && List.sort compare (Graph.edges g)
             = List.sort compare (Graph.edges g2)))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* [mutate] maps the on-disk bytes to a corrupted variant; the load must
   then fail with a message containing [expect]. *)
let expect_load_failure what g ~mutate ~expect =
  with_snapshot_file (fun path ->
      Serial.save_snapshot path g;
      write_file path (mutate (read_file path));
      match Serial.load_snapshot path with
      | _ -> Alcotest.failf "%s: corrupted snapshot loaded" what
      | exception Failure msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S mentions %S" what msg expect)
            true (contains msg expect))

let set_byte s pos c =
  let b = Bytes.of_string s in
  Bytes.set b pos c;
  Bytes.to_string b

let test_snapshot_errors () =
  let g = graph 3 [ c2p 1 0; p2p 1 2 ] in
  expect_load_failure "magic" g
    ~mutate:(fun s -> set_byte s 0 'X')
    ~expect:"bad magic";
  expect_load_failure "version" g
    ~mutate:(fun s -> set_byte s 8 '\x63')
    ~expect:"format version 99";
  expect_load_failure "word size" g
    ~mutate:(fun s -> set_byte s 16 '\x04')
    ~expect:"payload word size";
  expect_load_failure "truncated header" g
    ~mutate:(fun s -> String.sub s 0 17)
    ~expect:"truncated header";
  expect_load_failure "truncated payload" g
    ~mutate:(fun s -> String.sub s 0 (String.length s - 8))
    ~expect:"truncated payload";
  expect_load_failure "trailing bytes" g
    ~mutate:(fun s -> s ^ "junk8bytes")
    ~expect:"trailing bytes";
  expect_load_failure "digest" g
    ~mutate:(fun s ->
      let pos = Serial.snapshot_payload_offset + 3 in
      set_byte s pos (Char.chr (Char.code s.[pos] lxor 0x20)))
    ~expect:"digest mismatch";
  (* Payload corruption that keeps the digest out of the way: zero the
     stored digest AND break CSR monotonicity is hard to stage by hand,
     but a wrong header count with a matching digest must still be
     rejected by the CSR cross-checks — here the digest catches it
     first, which is fine; the qcheck round trip plus Check.Topo's
     corruption gate cover the rest. *)
  (* [with_snapshot_file] removes its file on return, so this path no
     longer exists. *)
  let missing = with_snapshot_file Fun.id in
  match Serial.load_snapshot missing with
  | _ -> Alcotest.fail "a missing snapshot file loaded"
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "missing file: %S names the path" msg)
        true (contains msg missing)

let test_snapshot_empty_graph () =
  let g = Graph.of_edges ~n:1 [] in
  with_snapshot_file (fun path ->
      Serial.save_snapshot path g;
      let g2 = Serial.load_snapshot path in
      Alcotest.(check int) "n" 1 (Graph.n g2);
      Alcotest.(check int) "edges" 0 (Graph.num_peer_edges g2))

(* A mutated snapshot of [g] either loads the same edges — a change in
   the unchecked header padding, or in a payload word's top bit, which
   the 63-bit native int never reads — or raises [Failure] naming the
   file.  Any other exception is a loader bug. *)
let mutant_loads_or_fails g path ~what bytes =
  write_file path bytes;
  match Serial.load_snapshot path with
  | g2 ->
      List.sort compare (Graph.edges g) = List.sort compare (Graph.edges g2)
      || begin
           Printf.eprintf "%s loaded different edges\n%!" what;
           false
         end
  | exception Failure msg ->
      contains msg path
      || begin
           Printf.eprintf "%s: %S does not name the file\n%!" what msg;
           false
         end
  | exception e ->
      Printf.eprintf "%s escaped %s\n%!" what (Printexc.to_string e);
      false

let flip_byte s pos mask =
  set_byte s pos (Char.chr (Char.code s.[pos] lxor mask))

(* The binary counterpart of the text-parser property: one random byte
   flip (biased toward the header fields and the payload, where every
   byte is checked) or one truncation of a valid snapshot. *)
let test_snapshot_mutation =
  qtest "byte-mutated snapshots load the same edges or raise Failure"
    ~count:1000 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:12 in
      with_snapshot_file (fun path ->
          Serial.save_snapshot path g;
          let s = read_file path in
          let size = String.length s in
          let payload = Serial.snapshot_payload_offset in
          if Rng.int rng 4 = 0 then
            let len = Rng.int rng size in
            mutant_loads_or_fails g path (String.sub s 0 len)
              ~what:(Printf.sprintf "seed %d: truncation to %d" seed len)
          else
            let pos =
              match Rng.int rng 3 with
              | 0 -> Rng.int rng 64
              | 1 -> payload + Rng.int rng (size - payload)
              | _ -> Rng.int rng size
            in
            let mask = 1 + Rng.int rng 255 in
            mutant_loads_or_fails g path (flip_byte s pos mask)
              ~what:
                (Printf.sprintf "seed %d: byte %d xor 0x%02x" seed pos mask)))

(* Every single-bit flip of the 64 header bytes: a count field whose top
   byte is corrupted must not overflow the payload-size arithmetic or
   reach [Unix.map_file] as a bad dimension. *)
let test_snapshot_header_bits () =
  let g = graph 4 [ c2p 1 0; p2p 1 2; c2p 3 2 ] in
  with_snapshot_file (fun path ->
      Serial.save_snapshot path g;
      let s = read_file path in
      for pos = 0 to 63 do
        for bit = 0 to 7 do
          let what = Printf.sprintf "header byte %d bit %d" pos bit in
          let bytes = flip_byte s pos (1 lsl bit) in
          if not (mutant_loads_or_fails g path ~what bytes) then
            Alcotest.failf "%s: see stderr" what
        done
      done)

(* Tiers per Table 1 on a small hand graph. *)
let test_tiers () =
  (* 0,1: provider-less with customers (T1); 2: transit with providers;
     3: stub with a peer (stub-x); 4: plain stub; 5: CP designate. *)
  let g =
    graph 6 [ c2p 2 0; c2p 2 1; p2p 0 1; c2p 3 2; p2p 3 5; c2p 4 2; c2p 5 2 ]
  in
  let tiers =
    Tiers.classify ~n_t1:2 ~n_t2:1 ~n_t3:0 ~n_small_cp:0 ~cps:[ 5 ] g
  in
  Alcotest.(check string) "0 is T1" "T1" (Tiers.tier_name (Tiers.tier_of tiers 0));
  Alcotest.(check string) "1 is T1" "T1" (Tiers.tier_name (Tiers.tier_of tiers 1));
  Alcotest.(check string) "2 is T2" "T2" (Tiers.tier_name (Tiers.tier_of tiers 2));
  Alcotest.(check string) "3 is stub-x" "STUB-X"
    (Tiers.tier_name (Tiers.tier_of tiers 3));
  Alcotest.(check string) "4 is stub" "STUB"
    (Tiers.tier_name (Tiers.tier_of tiers 4));
  Alcotest.(check string) "5 is CP" "CP" (Tiers.tier_name (Tiers.tier_of tiers 5));
  Alcotest.(check (array int)) "non-stubs" [| 0; 1; 2; 5 |] (Tiers.non_stubs tiers)

let test_tiers_partition =
  qtest "tiers partition all ASes" ~count:100 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:60 in
      let tiers = Tiers.classify ~n_t1:3 ~n_t2:5 ~n_t3:5 ~n_small_cp:5 g in
      let total =
        List.fold_left
          (fun acc t -> acc + Array.length (Tiers.members tiers t))
          0 Tiers.all_tiers
      in
      total = Graph.n g)

let test_stubs_of () =
  let g = graph 5 [ c2p 1 0; c2p 2 0; c2p 3 1; c2p 4 2; c2p 3 2 ] in
  (* stubs: 3 (providers 1,2), 4 (provider 2). *)
  Alcotest.(check (array int)) "stubs of [1]" [| 3 |] (Tiers.stubs_of g [| 1 |]);
  Alcotest.(check (array int)) "stubs of [2]" [| 3; 4 |] (Tiers.stubs_of g [| 2 |]);
  Alcotest.(check (array int)) "stubs of [0]" [||] (Tiers.stubs_of g [| 0 |])

let test_ixp_augment =
  qtest "IXP augmentation adds only new peer edges" ~count:50 (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng ~max_n:40 in
      let g2, added = Ixp.augment (Rng.split rng) g in
      Graph.n g2 = Graph.n g
      && Graph.num_customer_provider_edges g2
         = Graph.num_customer_provider_edges g
      && Graph.num_peer_edges g2 = Graph.num_peer_edges g + added
      && added >= 0)

let () =
  Alcotest.run "topology"
    [
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "self loop" `Quick test_graph_rejects_self_loop;
          Alcotest.test_case "conflict" `Quick test_graph_rejects_conflict;
          Alcotest.test_case "dedup" `Quick test_graph_dedups;
          Alcotest.test_case "out of range" `Quick test_graph_out_of_range;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          test_edges_roundtrip;
        ] );
      ( "serial",
        [
          test_serial_roundtrip;
          Alcotest.test_case "format" `Quick test_serial_format;
          Alcotest.test_case "errors" `Quick test_serial_errors;
          Alcotest.test_case "edge errors" `Quick test_serial_edge_errors;
          test_serial_mutation;
          Alcotest.test_case "file round trip" `Quick test_serial_file_roundtrip;
          Alcotest.test_case "sparse ASN remapping" `Quick test_serial_remapped;
          Alcotest.test_case "extra fields tolerated" `Quick
            test_serial_extra_fields;
        ] );
      ( "snapshot",
        [
          test_snapshot_roundtrip;
          Alcotest.test_case "corruption rejected" `Quick test_snapshot_errors;
          Alcotest.test_case "empty graph" `Quick test_snapshot_empty_graph;
          test_snapshot_mutation;
          Alcotest.test_case "header bit flips" `Quick
            test_snapshot_header_bits;
        ] );
      ( "tiers",
        [
          Alcotest.test_case "table 1 classification" `Quick test_tiers;
          test_tiers_partition;
          Alcotest.test_case "stubs_of" `Quick test_stubs_of;
        ] );
      ("ixp", [ test_ixp_augment ]);
    ]
