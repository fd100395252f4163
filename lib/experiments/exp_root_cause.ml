(* Figure 16: root-cause decomposition of the metric change under the
   last Tier 1+2 rollout step.  Paper: under security 3rd most secure
   routes are lost to downgrades or wasted on already-happy sources, and
   collateral benefits matter; under security 1st downgrades vanish and
   the metric gain is large, with rare collateral damages. *)

let name = "root-cause"
let title = "Figure 16: root causes of metric changes"
let paper = "Figure 16; Section 6.2"

let run (ctx : Context.t) =
  let dep = Deployment.tier1_tier2 ctx.graph ctx.tiers ~n_t1:13 ~n_t2:100 in
  let attackers =
    Context.sample ctx "rc-att" ctx.non_stubs (Context.scaled ctx 25)
  in
  let dsts = Context.sample ctx "rc-dst" ctx.all (Context.scaled ctx 25) in
  let pairs = Metric.H_metric.pairs ~attackers ~dsts () in
  let table =
    Prelude.Table.create
      ~header:
        [
          "model";
          "secure routes (normal)";
          "downgraded";
          "wasted on happy";
          "protecting unhappy";
          "collateral benefit";
          "collateral damage";
          "metric change";
        ]
  in
  let n = Topology.Graph.n ctx.graph in
  let totals =
    List.map (fun _ -> ref Metric.Phenomena.root_cause_zero) Context.policies
  in
  let ws = Routing.Batch.Workspace.local () in
  Array.iter
    (fun (dst, attackers, _) ->
      (* At S = {} nothing is signed, so one baseline word serves all
         three models. *)
      let base =
        Metric.Phenomena.word ~ws ctx.graph Context.sec3 (Deployment.empty n)
          ~dst ~attackers
      in
      List.iter2
        (fun policy total ->
          let w = Metric.Phenomena.word ~ws ctx.graph policy dep ~dst ~attackers in
          total :=
            Array.fold_left Metric.Phenomena.root_cause_add !total
              (Metric.Phenomena.root_cause ~base w))
        Context.policies totals)
    (Metric.H_metric.batch_plan ~lanes:Metric.Phenomena.max_attackers pairs);
  List.iter2
    (fun policy total ->
      let total = !total in
      let f x = Prelude.Stats.fraction x total.Metric.Phenomena.sources in
      Prelude.Table.add_row table
        [
          Routing.Policy.name policy;
          Util.pct (f total.Metric.Phenomena.rc_secure_normal);
          Util.pct (f total.Metric.Phenomena.rc_downgraded);
          Util.pct (f total.Metric.Phenomena.rc_wasted);
          Util.pct (f total.Metric.Phenomena.rc_protecting);
          Util.pct (f total.Metric.Phenomena.rc_benefit);
          Util.pct (f total.Metric.Phenomena.rc_damage);
          Printf.sprintf "%+.1f%%"
            (100.
            *. (f total.Metric.Phenomena.rc_happy_dep
               -. f total.Metric.Phenomena.rc_happy_base));
        ])
    Context.policies totals;
  Util.header title paper
  ^ Printf.sprintf "S = all T1s, T2s and their stubs (%s); %d pairs\n"
      (Deployment.describe dep) (Array.length pairs)
  ^ Prelude.Table.to_string table
