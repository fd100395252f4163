module D = Diagnostic
module O = Routing.Outcome
module P = Routing.Policy
module E = Routing.Engine
module R = Routing.Reference
module S = Routing.Staged

let class_code out v =
  if v = O.dst out || Some v = O.attacker out then 3
  else
    match O.route_class out v with
    | P.Customer -> 0
    | P.Peer -> 1
    | P.Provider -> 2

(* First field-level disagreement as [(as_id, detail)], or None when the
   outcomes agree ([as_id] is -1 for a size mismatch).  [parents] is off
   when comparing against the staged specification, whose representative
   next hop is not part of its contract. *)
let mismatch_at ?(parents = true) ~want ~got () =
  let n = O.n want in
  if O.n got <> n then
    Some (-1, Printf.sprintf "outcome sizes differ (%d vs %d)" n (O.n got))
  else begin
    let res = ref None in
    let cell v name a b =
      if !res = None && a <> b then
        res := Some (v, Printf.sprintf "AS %d: %s %d/%d" v name a b)
    in
    let v = ref 0 in
    while !res = None && !v < n do
      let u = !v in
      let ra = O.reached want u and rb = O.reached got u in
      cell u "reached" (Bool.to_int ra) (Bool.to_int rb);
      if ra && rb then begin
        cell u "length" (O.length want u) (O.length got u);
        cell u "class" (class_code want u) (class_code got u);
        cell u "secure"
          (Bool.to_int (O.secure want u))
          (Bool.to_int (O.secure got u));
        cell u "to-d" (Bool.to_int (O.to_d want u)) (Bool.to_int (O.to_d got u));
        cell u "to-m" (Bool.to_int (O.to_m want u)) (Bool.to_int (O.to_m got u));
        if parents then cell u "next-hop" (O.next_hop want u) (O.next_hop got u)
      end;
      incr v
    done;
    !res
  end

let mismatch ?parents ~want ~got () =
  Option.map snd (mismatch_at ?parents ~want ~got ())

let tb_name = function E.Bounds -> "bounds" | E.Lowest_next_hop -> "lnh"

let analyze ?(attacker_claim = 1) g policies dep pairs =
  let ws = E.Workspace.create 0 in
  let rws = R.Workspace.create 0 in
  let items = ref 0 in
  let diags = ref [] in
  let report ~policy ~tiebreak ~dst ~attacker ~engine detail =
    let subjects = match attacker with None -> [ dst ] | Some m -> [ dst; m ] in
    let attacker_s =
      match attacker with
      | None -> "no attacker"
      | Some m -> Printf.sprintf "attacker %d" m
    in
    diags :=
      !diags
      @ [
          D.error ~rule:"kernel/divergence" ~subjects
            (Printf.sprintf
               "packed engine (%s) disagrees with %s [%s, %s tiebreak, dst \
                %d, %s, claim %d]: %s"
               (fst engine) (snd engine) (P.name policy) (tb_name tiebreak)
               dst attacker_s attacker_claim detail);
        ]
  in
  List.iter
    (fun policy ->
      Array.iter
        (fun (dst, attacker) ->
          List.iter
            (fun tiebreak ->
              let want =
                R.compute ~tiebreak ~attacker_claim ~ws:rws g policy dep ~dst
                  ~attacker
              in
              let check ~engine ?parents got =
                incr items;
                match mismatch ?parents ~want ~got () with
                | None -> ()
                | Some detail ->
                    report ~policy ~tiebreak ~dst ~attacker ~engine detail
              in
              check
                ~engine:("fresh buffers", "the reference kernel")
                (E.compute ~tiebreak ~attacker_claim g policy dep ~dst
                   ~attacker);
              (* The reused-workspace outcome is invalidated by the next
                 checkout from [ws], so it is compared eagerly. *)
              check
                ~engine:("reused workspace", "the reference kernel")
                (E.compute ~tiebreak ~attacker_claim ~ws g policy dep ~dst
                   ~attacker);
              match (policy.P.lp, tiebreak) with
              | P.Standard, E.Bounds when attacker_claim = 1 ->
                  (* The Appendix-B transcription only covers the Standard
                     LP model in Bounds mode with the paper's "m d" claim. *)
                  check
                    ~engine:("fresh buffers", "the staged specification")
                    ~parents:false
                    (S.compute g policy dep ~dst ~attacker)
              | _ -> ())
            [ E.Bounds; E.Lowest_next_hop ])
        pairs)
    policies;
  (!items, !diags)

module B = Routing.Batch

(* The Reference side of a divergence report, in the packed word's
   vocabulary so both lanes read alike. *)
let describe_scalar out v =
  if not (O.reached out v) then "unreached"
  else
    Printf.sprintf "cls=%d len=%d secure=%b to_d=%b to_m=%b next-hop=%d"
      (class_code out v) (O.length out v) (O.secure out v) (O.to_d out v)
      (O.to_m out v) (O.next_hop out v)

let describe_group b ~v ~lane =
  match B.group_of b ~v ~lane with
  | None -> "no group (lane unreached)"
  | Some (mask, word, parent) ->
      Printf.sprintf "group mask=%#x parent=%d %s" mask parent
        (E.Packed.describe word)

(* Batched-divergence sub-pass: every lane of every batched solve is
   decoded and compared field-by-field against a Reference solve of the
   same (attacker, destination) pair.  Each batch is solved twice: as
   given, and as a mixed word whose lane 0 holds normal conditions
   ({!Routing.Batch.no_attacker}) next to the attackers, that lane held
   to a Reference solve with no attacker (odd word numbers).  A
   divergence pinpoints the first disagreeing AS by (destination, word,
   bit) and decodes both packed lanes — the batch side straight from
   its lane group, the Reference side from its outcome.

   [tamper ~lane got] mutates the decoded outcome before comparison;
   the false-negative mutants use it to emulate batch-kernel bugs
   (dropped tie flags, stale lanes, a rooted normal lane) and prove this
   pass catches them. *)
let analyze_batch ?(attacker_claim = 1) ?tamper g policies dep batches =
  let bws = B.Workspace.create 0 in
  let rws = R.Workspace.create 0 in
  let items = ref 0 in
  let diags = ref [] in
  let words =
    Array.to_list batches
    |> List.concat_map (fun (dst, attackers) ->
           let k = min (Array.length attackers) (B.max_lanes - 1) in
           let mixed = Array.append [| B.no_attacker |] (Array.sub attackers 0 k) in
           [ (dst, attackers); (dst, mixed) ])
  in
  List.iter
    (fun policy ->
      List.iteri
        (fun word_idx (dst, attackers) ->
          List.iter
            (fun tiebreak ->
              let b =
                B.compute ~tiebreak ~attacker_claim ~ws:bws g policy dep ~dst
                  ~attackers
              in
              Array.iteri
                (fun lane m ->
                  incr items;
                  let got = B.decode b ~lane in
                  (match tamper with Some f -> f ~lane got | None -> ());
                  let attacker = if m = B.no_attacker then None else Some m in
                  let want =
                    R.compute ~tiebreak ~attacker_claim ~ws:rws g policy dep
                      ~dst ~attacker
                  in
                  match mismatch_at ~want ~got () with
                  | None -> ()
                  | Some (v, detail) ->
                      let lanes_detail =
                        if v < 0 then ""
                        else
                          Printf.sprintf "; batch lane: %s; reference: %s"
                            (describe_group b ~v ~lane)
                            (describe_scalar want v)
                      in
                      let who, subjects =
                        match attacker with
                        | None -> ("no attacker", [ dst ])
                        | Some m -> (Printf.sprintf "attacker %d" m, [ dst; m ])
                      in
                      diags :=
                        !diags
                        @ [
                            D.error ~rule:"kernel/batch-divergence" ~subjects
                              (Printf.sprintf
                                 "batched kernel diverges from the reference \
                                  kernel [%s, %s tiebreak, claim %d] at dst \
                                  %d, word %d, bit %d (%s): %s%s"
                                 (P.name policy) (tb_name tiebreak)
                                 attacker_claim dst word_idx lane who detail
                                 lanes_detail);
                          ])
                attackers)
            [ B.Bounds; B.Lowest_next_hop ])
        words)
    policies;
  (!items, !diags)

(* Partition sub-pass: the batched partition counts of every sampled
   attacker word against the per-pair oracle, lane by lane, for every
   model the experiments classify under.  Each word is classified three
   ways: each policy alone, all policies in one call (one shared solve
   per LP variant, one pair of lane closures), and all policies over
   three source groups plus non-sources, held per group to
   [count_among].  LPk on a cyclic hierarchy must fail the same way on
   both sides.  [fault] plants a bug in the batched side (the mutant
   guard). *)
module Pt = Metric.Partition

let partition_policies =
  [
    P.make P.Security_first;
    P.make P.Security_second;
    P.make P.Security_third;
    P.make ~lp:(P.Lp_k 1) P.Security_second;
    P.make ~lp:(P.Lp_k 2) P.Security_second;
    P.make ~lp:(P.Lp_k 60) P.Security_second;
  ]

let describe_counts (c : Pt.counts) =
  Printf.sprintf "doomed %d, protectable %d, immune %d, unreachable %d of %d"
    c.Pt.doomed c.Pt.protectable c.Pt.immune c.Pt.unreachable c.Pt.sources

let source_groups = 3

let analyze_partition ?fault g batches =
  let n = Topology.Graph.n g in
  (* Group [v mod 4], with 3 meaning "not a source"; the first word's
     destination and attackers are put in groups so the per-lane
     exclusions are exercised. *)
  let ids = Array.init n (fun v -> if v mod 4 = 3 then -1 else v mod 4) in
  (match batches with
  | [||] -> ()
  | _ ->
      let dst, attackers = batches.(0) in
      ids.(dst) <- 0;
      Array.iteri (fun l m -> ids.(m) <- l mod source_groups) attackers);
  let members =
    Array.init source_groups (fun grp ->
        Array.of_list
          (List.filter (fun v -> ids.(v) = grp) (List.init n Fun.id)))
  in
  let policies = Array.of_list partition_policies in
  let items = ref 0 in
  let diags = ref [] in
  let guard f = match f () with v -> Ok v | exception Failure msg -> Error msg in
  Array.iteri
    (fun word_idx (dst, attackers) ->
      let report ~policy ~how ~subjects detail =
        diags :=
          !diags
          @ [
              D.error ~rule:"kernel/partition-divergence" ~subjects
                (Printf.sprintf
                   "batched partition counts diverge from the per-pair \
                    oracle [%s%s] at dst %d, attacker word %d: %s"
                   (P.name policy) how dst word_idx detail);
            ]
      in
      (* The first lane where [got] and [want] disagree. *)
      let compare_lanes ~policy ~how (got : Pt.counts array) want =
        items := !items + Array.length attackers;
        let first = ref None in
        Array.iteri
          (fun l w -> if !first = None && got.(l) <> w then first := Some l)
          want;
        Option.iter
          (fun l ->
            report ~policy ~how ~subjects:[ dst; attackers.(l) ]
              (Printf.sprintf "bit %d (attacker %d): batch %s; per-pair %s" l
                 attackers.(l) (describe_counts got.(l))
                 (describe_counts want.(l))))
          !first
      in
      let oracle =
        Array.map
          (fun policy ->
            guard (fun () ->
                Array.map
                  (fun attacker -> Pt.count g policy ~attacker ~dst)
                  attackers))
          policies
      in
      let oracle_among =
        Array.map
          (fun policy ->
            guard (fun () ->
                Array.map
                  (fun sources ->
                    Array.map
                      (fun attacker ->
                        Pt.count_among g policy ~attacker ~dst ~sources)
                      attackers)
                  members))
          policies
      in
      (* A whole call failed: some policy's oracle must fail alike. *)
      let failed ~how a wants =
        if
          not
            (Array.exists
               (function Error b -> String.equal a b | Ok _ -> false)
               wants)
        then report ~policy:policies.(0) ~how ~subjects:[ dst ]
            ("batch failed: " ^ a)
      in
      let held ~policy ~how got want compare =
        match (got, want) with
        | Ok got, Ok want -> compare got want
        | Error a, Error b when String.equal a b -> ()
        | Error a, _ -> report ~policy ~how ~subjects:[ dst ] ("batch failed: " ^ a)
        | Ok _, Error b ->
            report ~policy ~how ~subjects:[ dst ]
              ("only the per-pair oracle failed: " ^ b)
      in
      Array.iteri
        (fun p policy ->
          held ~policy ~how:""
            (guard (fun () ->
                 (Pt.count_batch ?fault g [ policy ] ~dst ~attackers).(0).(0)))
            oracle.(p)
            (compare_lanes ~policy ~how:""))
        policies;
      let how = ", all policies" in
      (match
         guard (fun () ->
             Pt.count_batch ?fault g partition_policies ~dst ~attackers)
       with
      | Error a -> failed ~how a oracle
      | Ok got ->
          Array.iteri
            (fun p policy ->
              held ~policy ~how (Ok got.(p).(0)) oracle.(p)
                (compare_lanes ~policy ~how))
            policies);
      match
        guard (fun () ->
            Pt.count_batch ?fault ~groups:(ids, source_groups) g
              partition_policies ~dst ~attackers)
      with
      | Error a -> failed ~how:", grouped" a oracle_among
      | Ok got ->
          Array.iteri
            (fun p policy ->
              held ~policy ~how:", grouped" (Ok got.(p)) oracle_among.(p)
                (fun got want ->
                  Array.iteri
                    (fun grp want ->
                      compare_lanes ~policy
                        ~how:(Printf.sprintf ", group %d" grp)
                        got.(grp) want)
                    want))
            policies)
    batches;
  (!items, !diags)
