(* Figure 13: what happens to the secure routes toward each content
   provider when S is the Tier 1s, the CPs, and all their stubs, under
   security 3rd.  Paper: most secure routes are lost to protocol
   downgrades, and almost all that survive belong to immune sources. *)

let name = "cp-fate"
let title = "Figure 13: fate of secure routes to content providers"
let paper = "Figure 13; Section 5.3.1"

let run_policy (ctx : Context.t) policy =
  let dep = Deployment.tier1_and_stubs ~with_cps:true ctx.graph ctx.tiers in
  let attackers =
    Context.sample ctx "cpfate-att" ctx.non_stubs (Context.scaled ctx 30)
  in
  let n = Topology.Graph.n ctx.graph in
  let empty = Deployment.empty n in
  let table =
    Prelude.Table.create
      ~header:
        [
          "CP dest";
          "secure routes (normal)";
          "lost to downgrade";
          "kept, immune source";
          "kept, other";
        ]
  in
  let ws = Routing.Batch.Workspace.local () in
  Array.iteri
    (fun cp_index dst ->
      let pairs = Metric.H_metric.pairs ~attackers ~dsts:[| dst |] () in
      let secure_normal = ref 0 in
      let total = ref Metric.Phenomena.root_cause_zero in
      Array.iter
        (fun (dst, attackers, _) ->
          (* Lane 0 of the deployment's word is normal conditions.  Under
             security 3rd the baseline word's happy lanes (to-d and not
             to-m at S = {}) are exactly the immune sources (Corollary
             E.1), so a secure route that survives the attack is kept
             by an immune source iff [root_cause] counts it as wasted. *)
          let base =
            Metric.Phenomena.word ~ws ctx.graph policy empty ~dst ~attackers
          in
          let w = Metric.Phenomena.word ~ws ctx.graph policy dep ~dst ~attackers in
          secure_normal := Metric.Phenomena.secure_routes w;
          total :=
            Array.fold_left Metric.Phenomena.root_cause_add !total
              (Metric.Phenomena.root_cause ~base w))
        (match
           Metric.H_metric.batch_plan ~lanes:Metric.Phenomena.max_attackers
             pairs
         with
        | [||] ->
            (* No attacker besides the CP itself: the normal lane alone
               still reports its secure routes. *)
            [| (dst, [||], [||]) |]
        | plan -> plan);
      let t = !total in
      let frac x = float_of_int x /. float_of_int t.sources in
      Prelude.Table.add_row table
        [
          Printf.sprintf "CP%d (AS %d)" (cp_index + 1) dst;
          Util.pct (float_of_int !secure_normal /. float_of_int (n - 1));
          Util.pct (frac t.rc_downgraded);
          Util.pct (frac t.rc_wasted);
          Util.pct (frac t.rc_protecting);
        ])
    ctx.cps;
  table

let run (ctx : Context.t) =
  Util.header title paper
  ^ "security 3rd:\n"
  ^ Prelude.Table.to_string (run_policy ctx Context.sec3)
