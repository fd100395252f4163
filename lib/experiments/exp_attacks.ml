(* Section 3's threat-model motivation, quantified: origin authentication
   already stops prefix and subprefix hijacks cold, while fabricated
   paths sail through origin validation — and the shortest claim ("m d")
   is the strongest, which is why the paper's evaluation fixes it. *)

let name = "attacks"
let title = "Section 3: attack strategies vs origin authentication and S*BGP"
let paper = "Section 3 (threat model)"

let strategies =
  Attacks.
    [
      Prefix_hijack;
      Subprefix_hijack;
      Fabricated_path 1;
      Fabricated_path 2;
      Fabricated_path 3;
      Fabricated_path 5;
    ]

(* The per-pair happy fractions, summed in pair order: the attackers
   of one destination share each solve, and the sum runs over the
   scattered per-pair results so the floats match a pair-by-pair
   evaluation bit for bit. *)
let avg_happy (ctx : Context.t) policy dep ~origin_auth pairs strategy =
  let per_pair = Array.make (Array.length pairs) (0., 0.) in
  let ws = Routing.Batch.Workspace.local () in
  Array.iter
    (fun (dst, attackers, positions) ->
      let rs =
        Attacks.simulate ~origin_auth ~ws ctx.graph policy dep ~dst ~attackers
          strategy
      in
      Array.iteri (fun l pos -> per_pair.(pos) <- Attacks.happy_fraction rs.(l))
        positions)
    (Metric.H_metric.batch_plan pairs);
  let lb = ref 0. and ub = ref 0. in
  Array.iter
    (fun (flb, fub) ->
      lb := !lb +. flb;
      ub := !ub +. fub)
    per_pair;
  let n = float_of_int (Array.length pairs) in
  (!lb /. n, !ub /. n)

let run (ctx : Context.t) =
  let attackers =
    Context.sample ctx "atk-att" ctx.non_stubs (Context.scaled ctx 15)
  in
  let dsts = Context.sample ctx "atk-dst" ctx.all (Context.scaled ctx 15) in
  let pairs = Metric.H_metric.pairs ~attackers ~dsts () in
  let n = Topology.Graph.n ctx.graph in
  let empty = Deployment.empty n in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Util.header title paper);
  (* Part 1: what origin authentication alone does and does not stop. *)
  Buffer.add_string buf
    "No S*BGP deployed (S = {}), security 3rd; average happy-source fraction:\n";
  let table =
    Prelude.Table.create
      ~header:
        [ "attacker strategy"; "passes RPKI OV"; "no origin auth"; "with origin auth" ]
  in
  List.iter
    (fun strategy ->
      let no_oa, _ =
        avg_happy ctx Context.sec3 empty ~origin_auth:false pairs strategy
      in
      (* Origin authentication filters only announcements that fail
         origin validation; one that passes is evaluated alike with or
         without it. *)
      let with_oa =
        if Attacks.passes_origin_validation strategy then no_oa
        else
          fst (avg_happy ctx Context.sec3 empty ~origin_auth:true pairs strategy)
      in
      Prelude.Table.add_row table
        [
          Attacks.strategy_name strategy;
          (if Attacks.passes_origin_validation strategy then "yes" else "NO");
          Prelude.Stats.percent no_oa;
          Prelude.Stats.percent with_oa;
        ])
    strategies;
  Buffer.add_string buf (Prelude.Table.to_string table);
  Buffer.add_string buf
    "(origin authentication nullifies the hijacks; fabricated paths are\n\
     untouched by it, and shorter claims attract more sources — hence the\n\
     paper's focus on the \"m d\" announcement)\n\n";
  (* Part 2: what partially-deployed S*BGP adds against fabricated paths. *)
  Buffer.add_string buf
    "Fabricated paths vs partial S*BGP (T1s+T2s+stubs secure), origin auth on:\n";
  let dep = Deployment.tier1_tier2 ctx.graph ctx.tiers ~n_t1:13 ~n_t2:100 in
  let table2 =
    Prelude.Table.create
      ~header:[ "claimed length"; "sec 1st"; "sec 2nd"; "sec 3rd" ]
  in
  List.iter
    (fun k ->
      let cells =
        List.map
          (fun policy ->
            let lb, _ =
              avg_happy ctx policy dep ~origin_auth:true pairs
                (Attacks.Fabricated_path k)
            in
            Prelude.Stats.percent lb)
          Context.policies
      in
      Prelude.Table.add_row table2 (string_of_int k :: cells))
    [ 1; 2; 3; 5 ];
  Buffer.add_string buf (Prelude.Table.to_string table2);
  Buffer.contents buf
