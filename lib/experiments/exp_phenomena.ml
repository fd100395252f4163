(* Table 3: which phenomena occur in which security model.  Paper:
   protocol downgrades in 2nd/3rd only; collateral benefits in all three;
   collateral damages in 1st/2nd only. *)

let name = "phenomena"
let title = "Table 3: phenomena per security model"
let paper = "Table 3; Sections 3.2, 6.1"

let run (ctx : Context.t) =
  let dep = Deployment.tier1_tier2 ctx.graph ctx.tiers ~n_t1:13 ~n_t2:100 in
  let attackers =
    Context.sample ctx "phen-att" ctx.non_stubs (Context.scaled ctx 20)
  in
  let dsts = Context.sample ctx "phen-dst" ctx.all (Context.scaled ctx 20) in
  let pairs = Metric.H_metric.pairs ~attackers ~dsts () in
  let table =
    Prelude.Table.create
      ~header:
        [
          "model";
          "protocol downgrades";
          "collateral benefits";
          "collateral damages";
        ]
  in
  let mark count expected =
    Printf.sprintf "%s (%d)" (if count > 0 then "yes" else "no") count
    ^ if (count > 0) = expected then "" else " [unexpected]"
  in
  let n = Topology.Graph.n ctx.graph in
  let models =
    [
      (Context.sec1, false, true);
      (Context.sec2, true, true);
      (Context.sec3, true, false);
    ]
  in
  (* Per model: downgrades, collateral benefits, collateral damages. *)
  let sums = List.map (fun _ -> Array.make 3 0) models in
  let ws = Routing.Batch.Workspace.local () in
  Array.iter
    (fun (dst, attackers, _) ->
      (* At S = {} nothing is signed, so one baseline word serves all
         three models. *)
      let baseline =
        Metric.Phenomena.word ~ws ctx.graph Context.sec3 (Deployment.empty n)
          ~dst ~attackers
      in
      List.iter2
        (fun (policy, _, _) sum ->
          let w = Metric.Phenomena.word ~ws ctx.graph policy dep ~dst ~attackers in
          Array.iter
            (fun (dg : Metric.Phenomena.downgrade) ->
              sum.(0) <- sum.(0) + dg.downgraded)
            (Metric.Phenomena.downgrades w);
          Array.iter
            (fun (col : Metric.Phenomena.collateral) ->
              sum.(1) <- sum.(1) + col.benefit;
              sum.(2) <- sum.(2) + col.damage)
            (Metric.Phenomena.collateral ~baseline w))
        models sums)
    (Metric.H_metric.batch_plan ~lanes:Metric.Phenomena.max_attackers pairs);
  List.iter2
    (fun (policy, exp_down, exp_damage) sum ->
      Prelude.Table.add_row table
        [
          Routing.Policy.name policy;
          mark sum.(0) exp_down;
          mark sum.(1) true;
          mark sum.(2) exp_damage;
        ])
    models sums;
  Util.header title paper
  ^ Printf.sprintf "%d pairs, S = T1s+T2s+stubs\n" (Array.length pairs)
  ^ Prelude.Table.to_string table
  ^ "paper's Table 3: downgrades in 2nd/3rd; benefits in all; damages in 1st/2nd\n"
