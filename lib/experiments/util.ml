(* Small shared helpers for experiment modules. *)

let pct = Prelude.Stats.percent

let pct_bounds (b : Metric.H_metric.bounds) =
  Printf.sprintf "[%s, %s]" (pct b.Metric.H_metric.lb) (pct b.Metric.H_metric.ub)

(* Render a metric improvement: the change in the pessimistic world and
   in the optimistic world. *)
let pct_delta (b : Metric.H_metric.bounds) =
  Printf.sprintf "%+.1f%% / %+.1f%%" (100. *. b.Metric.H_metric.lb)
    (100. *. b.Metric.H_metric.ub)

(* Average partition fractions over a set of attacker-destination pairs.
   Pairs sharing a destination are classified together, one
   [Partition.count_batch] call per destination word.  The words are
   split into two runs per domain, each run reusing one scratch that is
   dropped with it, and the runs fan out over the pool (integer counts,
   reduced in input order). *)
let partition_total ?pool ?sources g policy pairs =
  let items = Metric.H_metric.batch_plan pairs in
  let len = Array.length items in
  let domains =
    match pool with
    | Some p -> Parallel.Pool.size p
    | None -> Parallel.default_domains ()
  in
  let runs = min len (2 * max 1 domains) in
  let per_run =
    Parallel.map ?pool ~chunk:1
      (fun r ->
        let scratch = Metric.Partition.Scratch.create () in
        let ws = Routing.Batch.Workspace.local () in
        let total = ref Metric.Partition.zero in
        for i = r * len / runs to ((r + 1) * len / runs) - 1 do
          let dst, attackers, _pos = items.(i) in
          total :=
            Array.fold_left Metric.Partition.add !total
              (Metric.Partition.count_batch ~ws ~scratch ?sources g policy
                 ~dst ~attackers)
        done;
        !total)
      (Array.init runs Fun.id)
  in
  Array.fold_left Metric.Partition.add Metric.Partition.zero per_run

let partition_fractions ?pool g policy pairs =
  Metric.Partition.fractions (partition_total ?pool g policy pairs)

let partition_fractions_among ?pool g policy pairs ~sources =
  Metric.Partition.fractions (partition_total ?pool ~sources g policy pairs)

(* H over pairs, and the improvement over the empty deployment. *)
let h ?pool ?cache g policy dep pairs =
  Metric.H_metric.h_metric ?pool ?cache g policy dep pairs

let delta_h ?pool ?cache g policy dep pairs =
  let base =
    h ?pool ?cache g policy (Deployment.empty (Topology.Graph.n g)) pairs
  in
  let with_s = h ?pool ?cache g policy dep pairs in
  (base, with_s, Metric.H_metric.bounds_improvement with_s base)

let header title paper =
  Printf.sprintf "=== %s ===\n(paper: %s)\n" title paper

(* Shared samples for the Section-5 rollout-family experiments
   (rollout, per-destination, early-adopters).  Attackers are prefixes
   of one seeded pool draw (a prefix of a uniform sample without
   replacement is itself uniform), and secure destinations come from one
   global priority order, so samples nest across experiments and steps.
   Deployments repeat across the family — Figure 9's scenario is exactly
   the Figure 7(a) chain's middle step, Figures 10/12 are rollout
   endpoints — so with nested samples the shared result cache serves the
   repeated (policy, deployment, pair) evaluations across experiments. *)
let rollout_attackers (ctx : Context.t) ~k =
  let full =
    Context.sample ctx "rollout-att" ctx.Context.non_stubs
      (Context.scaled ctx 30)
  in
  Array.sub full 0 (min (Context.scaled ctx k) (Array.length full))

let secure_dsts (ctx : Context.t) dep ~k =
  Context.priority_sample ctx "rollout-securedst"
    (Deployment.secure_list dep) (Context.scaled ctx k)

(* Per-destination metric change, for the Figure 9/10/12 sequences.
   Parallelism is per destination (the coarsest independent unit here);
   the inner h_metric calls then run sequentially in their worker — a
   nested pool map would degrade to sequential anyway. *)
let per_destination_changes ?pool ?cache g policy dep ~attackers ~dsts =
  (* Intern the deployment versions up front so worker domains only take
     the interning mutex on a version already present. *)
  (match cache with
  | None -> ()
  | Some c ->
      ignore (Metric.H_metric.Cache.intern c g dep);
      ignore
        (Metric.H_metric.Cache.intern c g
           (Deployment.empty (Topology.Graph.n g))));
  Parallel.map ?pool
    (fun dst ->
      let base =
        Metric.H_metric.h_metric_per_dst ?cache g policy
          (Deployment.empty (Topology.Graph.n g))
          ~attackers ~dst
      in
      let with_s =
        Metric.H_metric.h_metric_per_dst ?cache g policy dep ~attackers ~dst
      in
      (dst, Metric.H_metric.bounds_improvement with_s base))
    dsts
