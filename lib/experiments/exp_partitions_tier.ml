(* Figures 4-6 (and the source-tier figure the paper omits): partitions
   broken down by the tier of the destination, the attacker, or the
   source.  Paper highlights: Tier 1 destinations are ~80% doomed under
   security 2nd/3rd (Figures 4-5); Tier 1 attackers are the least
   effective (Figure 6); source tiers look alike (Section 4.7). *)

let name = "partitions-tier"
let title = "Figures 4-6: partitions by destination / attacker / source tier"
let paper = "Figures 4, 5, 6; Sections 4.5-4.7"

let tier_list =
  (* Order as in the paper's figures. *)
  Topology.Tiers.
    [ Stub; Stub_x; Smdg; Small_cp; Cp; T3; T2; T1 ]

(* Figures 4 and 5 over the same pairs: one pass per tier classifies
   under security 3rd and 2nd and reads H(emptyset) off the shared
   solve.  Returns the two tables in that order. *)
let by_destination (ctx : Context.t) =
  let attackers =
    Context.sample ctx "ptier-att" ctx.all (Context.scaled ctx 35)
  in
  let table () =
    Prelude.Table.create
      ~header:[ "dest tier"; "doomed"; "protectable"; "immune"; "H({}) lb" ]
  in
  let sec3_table = table () and sec2_table = table () in
  List.iter
    (fun tier ->
      let members = Context.tier_members ctx tier in
      if Array.length members > 0 then begin
        let dsts =
          Context.sample ctx
            ("ptier-dst-" ^ Topology.Tiers.tier_name tier)
            members (Context.scaled ctx 25)
        in
        let pairs = Metric.H_metric.pairs ~attackers ~dsts () in
        let totals =
          Util.partition_totals ~pool:(Context.pool ctx)
            ~h_empty:Routing.Policy.Standard ctx.graph
            [ Context.sec3; Context.sec2 ] pairs
        in
        let baseline = Option.get totals.Util.h_empty in
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
                Util.pct baseline.Metric.H_metric.lb;
              ])
          [ sec3_table; sec2_table ]
      end)
    tier_list;
  (sec3_table, sec2_table)

let by_attacker (ctx : Context.t) policy =
  let dsts = Context.sample ctx "atier-dst" ctx.all (Context.scaled ctx 35) in
  let table =
    Prelude.Table.create
      ~header:[ "attacker tier"; "doomed"; "protectable"; "immune" ]
  in
  List.iter
    (fun tier ->
      let members = Context.tier_members ctx tier in
      if Array.length members > 0 then begin
        let attackers =
          Context.sample ctx
            ("atier-att-" ^ Topology.Tiers.tier_name tier)
            members (Context.scaled ctx 25)
        in
        let pairs = Metric.H_metric.pairs ~attackers ~dsts () in
        let doomed, protectable, immune =
          Util.partition_fractions ~pool:(Context.pool ctx) ctx.graph policy
            pairs
        in
        Prelude.Table.add_row table
          [
            Topology.Tiers.tier_name tier;
            Util.pct doomed;
            Util.pct protectable;
            Util.pct immune;
          ]
      end)
    tier_list;
  table

(* One grouped pass: each AS's group is its tier's position in
   [tier_list] (every AS has one tier), so every source tier is tallied
   off the same solves. *)
let by_source (ctx : Context.t) policy =
  let attackers = Context.sample ctx "stier-att" ctx.all (Context.scaled ctx 30) in
  let dsts = Context.sample ctx "stier-dst" ctx.all (Context.scaled ctx 30) in
  let pairs = Metric.H_metric.pairs ~attackers ~dsts () in
  let table =
    Prelude.Table.create
      ~header:[ "source tier"; "doomed"; "protectable"; "immune" ]
  in
  let ids = Array.make (Topology.Graph.n ctx.graph) (-1) in
  List.iteri
    (fun i tier ->
      Array.iter (fun v -> ids.(v) <- i) (Context.tier_members ctx tier))
    tier_list;
  let totals =
    Util.partition_totals ~pool:(Context.pool ctx)
      ~groups:(ids, List.length tier_list)
      ctx.graph [ policy ] pairs
  in
  List.iteri
    (fun i tier ->
      if Array.length (Context.tier_members ctx tier) > 0 then begin
        let doomed, protectable, immune =
          Metric.Partition.fractions totals.Util.counts.(0).(i)
        in
        Prelude.Table.add_row table
          [
            Topology.Tiers.tier_name tier;
            Util.pct doomed;
            Util.pct protectable;
            Util.pct immune;
          ]
      end)
    tier_list;
  table

let run (ctx : Context.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Util.header title paper);
  let fig4, fig5 = by_destination ctx in
  Buffer.add_string buf "Figure 4 - by destination tier, security 3rd:\n";
  Buffer.add_string buf (Prelude.Table.to_string fig4);
  Buffer.add_string buf "\nFigure 5 - by destination tier, security 2nd:\n";
  Buffer.add_string buf (Prelude.Table.to_string fig5);
  Buffer.add_string buf "\nFigure 6 - by attacker tier, security 3rd:\n";
  Buffer.add_string buf (Prelude.Table.to_string (by_attacker ctx Context.sec3));
  Buffer.add_string buf
    "\nSection 4.7 (figure omitted in paper) - by source tier, security 3rd:\n";
  Buffer.add_string buf (Prelude.Table.to_string (by_source ctx Context.sec3));
  Buffer.contents buf
