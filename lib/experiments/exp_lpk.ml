(* Appendix K: sensitivity to the local-preference model.  Figures 24-25:
   partitions under the LP2 policy variant, overall and by destination
   tier.  Paper: the sec 3rd upper bound on H(S) is ~82% on the UCLA
   graph (~75% under the standard LP), high-degree destinations gain
   many immune sources, and Tier 1 destinations are no longer mostly
   doomed. *)

let name = "lpk"
let title = "Figures 24-25: LP2 policy variant partitions"
let paper = "Appendix K; Figures 24, 25"

let lp2 model = Routing.Policy.make ~lp:(Routing.Policy.Lp_k 2) model

let run (ctx : Context.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Util.header title paper);
  let lpinf model = Routing.Policy.make ~lp:(Routing.Policy.Lp_k 60) model in
  let policies =
    [
      lp2 Routing.Policy.Security_first;
      lp2 Routing.Policy.Security_second;
      lp2 Routing.Policy.Security_third;
      (* Appendix K's "k to infinity" remark: customers and peers ranked
         purely by length (k = 60 exceeds every path length here). *)
      lpinf Routing.Policy.Security_second;
      lpinf Routing.Policy.Security_third;
    ]
  in
  Buffer.add_string buf
    "Figure 24 - overall partitions under LP2 (and the k->infinity variant):\n";
  Buffer.add_string buf (Exp_partitions.run_policies ctx policies);
  (* Figure 25: by destination tier for sec 3rd and sec 2nd under LP2,
     both off one LP2 solve per destination word. *)
  let attackers = Context.sample ctx "lpk-att" ctx.all (Context.scaled ctx 30) in
  let tiers_order =
    Topology.Tiers.[ Stub; Stub_x; Smdg; Small_cp; Cp; T3; T2; T1 ]
  in
  let fig25 =
    [ lp2 Routing.Policy.Security_third; lp2 Routing.Policy.Security_second ]
  in
  let tables =
    List.map
      (fun _ ->
        Prelude.Table.create
          ~header:[ "dest tier"; "doomed"; "protectable"; "immune" ])
      fig25
  in
  List.iter
    (fun tier ->
      let members = Context.tier_members ctx tier in
      if Array.length members > 0 then begin
        let dsts =
          Context.sample ctx
            ("lpk-dst-" ^ Topology.Tiers.tier_name tier)
            members (Context.scaled ctx 20)
        in
        let pairs = Metric.H_metric.pairs ~attackers ~dsts () in
        let totals =
          Util.partition_totals ~pool:(Context.pool ctx) ctx.graph fig25 pairs
        in
        List.iteri
          (fun i table ->
            let doomed, protectable, immune =
              Metric.Partition.fractions totals.Util.counts.(i).(0)
            in
            Prelude.Table.add_row table
              [
                Topology.Tiers.tier_name tier;
                Util.pct doomed;
                Util.pct protectable;
                Util.pct immune;
              ])
          tables
      end)
    tiers_order;
  List.iter2
    (fun policy table ->
      Buffer.add_string buf
        (Printf.sprintf "\nFigure 25 - by destination tier, %s:\n"
           (Routing.Policy.name policy));
      Buffer.add_string buf (Prelude.Table.to_string table))
    fig25 tables;
  Buffer.contents buf
