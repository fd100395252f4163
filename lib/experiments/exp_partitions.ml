(* Figure 3: the doomed / protectable / immune partition per security
   model, averaged over attacker-destination pairs, with the baseline
   H(emptyset) line.  Paper: upper bound on H(S) ~ 100% (sec 1st), 89%
   (sec 2nd), 75% (sec 3rd) against a 60% baseline; immune fractions
   ~0% / 12% / 60%-ish respectively. *)

let name = "partitions"
let title = "Figure 3: partitions into doomed / protectable / immune"
let paper = "Figure 3, Sections 4.3-4.4"

let run_policies (ctx : Context.t) policies =
  let attackers =
    Context.sample ctx "part-att" ctx.all (Context.scaled ctx 45)
  in
  let dsts = Context.sample ctx "part-dst" ctx.all (Context.scaled ctx 45) in
  let pairs = Metric.H_metric.pairs ~attackers ~dsts () in
  (* One solve per destination word serves the security-3rd row and the
     H(emptyset) line, which is read off the baseline (standard LP)
     solve whatever the policies' variant. *)
  let totals =
    Util.partition_totals ~pool:(Context.pool ctx) ~h_empty:Routing.Policy.Standard
      ctx.graph policies pairs
  in
  let table =
    Prelude.Table.create
      ~header:
        [ "model"; "doomed"; "protectable"; "immune"; "max H(S) (=1-doomed)" ]
  in
  List.iteri
    (fun i policy ->
      let doomed, protectable, immune =
        Metric.Partition.fractions totals.Util.counts.(i).(0)
      in
      Prelude.Table.add_row table
        [
          Routing.Policy.name policy;
          Util.pct doomed;
          Util.pct protectable;
          Util.pct immune;
          Util.pct (1. -. doomed);
        ])
    policies;
  let baseline = Option.get totals.Util.h_empty in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Prelude.Table.to_string table);
  Buffer.add_string buf
    (Printf.sprintf "baseline H_{V,V}({}) (solid line in Figure 3): %s\n"
       (Util.pct_bounds baseline));
  Buffer.contents buf

let run ctx =
  Util.header title paper ^ run_policies ctx Context.policies
