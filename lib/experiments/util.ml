(* Small shared helpers for experiment modules. *)

let pct = Prelude.Stats.percent

let pct_bounds (b : Metric.H_metric.bounds) =
  Printf.sprintf "[%s, %s]" (pct b.Metric.H_metric.lb) (pct b.Metric.H_metric.ub)

(* Render a metric improvement: the change in the pessimistic world and
   in the optimistic world. *)
let pct_delta (b : Metric.H_metric.bounds) =
  Printf.sprintf "%+.1f%% / %+.1f%%" (100. *. b.Metric.H_metric.lb)
    (100. *. b.Metric.H_metric.ub)

(* Partition totals over a set of attacker-destination pairs.  Pairs
   sharing a destination are classified together, under every policy at
   once, by one [Partition.count_batch] call per destination word.  The
   words are split into two runs per domain, each run reusing one
   scratch that is dropped with it, and the runs fan out over the pool.
   Integer counts are reduced in input order.  For the H(emptyset) line
   the security-3rd policy of [h_empty]'s variant rides along (its
   solve is shared with the other policies of that variant); its lane
   counts give one bounds value per pair, averaged in pair order exactly
   as [H_metric.h_metric] averages its per-pair bounds. *)
type partition_totals = {
  counts : Metric.Partition.counts array array;
  h_empty : Metric.H_metric.bounds option;
}

let partition_totals ?pool ?groups ?h_empty g policies pairs =
  let ngroups = match groups with None -> 1 | Some (_, k) -> k in
  let np = List.length policies in
  let policies =
    match h_empty with
    | None -> policies
    | Some _ when Option.is_some groups ->
        invalid_arg "Util.partition_totals: h_empty with groups"
    | Some lp ->
        policies @ [ Routing.Policy.make ~lp Routing.Policy.Security_third ]
  in
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
        let lo = r * len / runs in
        Array.init (((r + 1) * len / runs) - lo) (fun k ->
            let dst, attackers, _pos = items.(lo + k) in
            Metric.Partition.count_batch ~ws ~scratch ?groups g policies ~dst
              ~attackers))
      (Array.init runs Fun.id)
  in
  let per_item = Array.concat (Array.to_list per_run) in
  let counts =
    Array.init np (fun p ->
        Array.init ngroups (fun grp ->
            Array.fold_left
              (fun acc c ->
                Array.fold_left Metric.Partition.add acc c.(p).(grp))
              Metric.Partition.zero per_item))
  in
  let h_empty =
    Option.map
      (fun _ ->
        let per_pair =
          Array.make (Array.length pairs) { Metric.H_metric.lb = 0.; ub = 0. }
        in
        Array.iteri
          (fun i c ->
            let _, _, pos = items.(i) in
            Array.iteri
              (fun l (k : Metric.Partition.counts) ->
                per_pair.(pos.(l)) <-
                  Metric.H_metric.to_bounds
                    {
                      Metric.H_metric.happy_lb = k.immune;
                      happy_ub = k.immune + k.protectable;
                      sources = k.sources;
                    })
              c.(np).(0))
          per_item;
        Metric.H_metric.mean per_pair)
      h_empty
  in
  { counts; h_empty }

let partition_fractions ?pool g policy pairs =
  Metric.Partition.fractions
    (partition_totals ?pool g [ policy ] pairs).counts.(0).(0)

(* H over pairs, and the improvement over the empty deployment. *)
let h ?pool ?cache g policy dep pairs =
  Metric.H_metric.h_metric ?pool ?cache g policy dep pairs

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
