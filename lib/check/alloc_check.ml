(* Runtime allocation gate behind `sbgp check --alloc`.

   The static A9 rule (ast/hot-alloc, lib/analysis) reasons about
   allocation *sites*; this pass measures what the compiled code
   actually does, which covers the analyzer's stated blind spots —
   inlining, [@inline] hints, unboxing, Simplif's reference elimination
   (DESIGN.md §16).  Three kernels are replayed single-domain over a
   deterministic pair sample with reused workspaces, and the observed
   [Gc.minor_words] per pair is compared against a recorded budget.

   Every measurement is identity-gated: the outcome produced inside the
   measured loop must be bit-identical to a fresh-buffer computation of
   the same pair, so a "fast because wrong" regression cannot hide
   behind a good allocation number.  A cold-vs-warm cache probe
   complements the static A10 rule: H over the same pair set, once
   computing and once served entirely from the shared cache, must agree
   exactly — a cache whose values depend on call history, placement or
   the executing domain fails here even if the impurity dodged the
   static walk.

   [tamper] (called once per measured scalar pair) and [taint] (applied
   to the warm cache-probe result) exist for the false-negative mutants:
   they emulate an allocation regression the analyzer missed and a
   history-dependent cache, and prove this pass catches both. *)

module D = Diagnostic
module G = Topology.Graph
module P = Routing.Policy
module E = Routing.Engine
module B = Routing.Batch
module R = Routing.Reference
module M = Metric.H_metric

type budgets = { scalar : float; batch : float; reference : float }

(* Minor words per (destination, attacker) pair with a reused
   workspace; [reference] is per pair per AS — the list-based reference
   kernel allocates O(n) per pair by design (measured 21.4-22.1 across
   n=100..400), so only the normalized rate is scale-free.  Recorded
   headroom is ~2x the measured steady state (scalar 210 at n=200,
   growing ~+48 per doubling of n; batch 4.0 flat; see EXPERIMENTS.md
   PR-10) so noise does not flake the gate while a per-pair box or
   closure regression still trips it. *)
let default_budgets = { scalar = 512.0; batch = 8.0; reference = 44.0 }

let dep_mixed n =
  Deployment.of_modes
    (Array.init n (fun v ->
         match v mod 5 with
         | 0 | 1 -> Deployment.Full
         | 2 -> Deployment.Simplex
         | _ -> Deployment.Off))

(* Attacked pairs only: the attacker path is the allocation-heavy one
   (two roots, secure/bogus bookkeeping), so it is the one budgeted. *)
let sample_pairs rng n k =
  Array.init k (fun _ ->
      let dst = Rng.int rng n in
      let m = (dst + 1 + Rng.int rng (n - 1)) mod n in
      (dst, Some m))

let measure f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let over ?(unit = "minor words/pair") ~kernel ~wpp ~budget () =
  D.error ~rule:"alloc/minor-budget"
    (Printf.sprintf
       "%s kernel allocates %.1f %s (budget %.1f); a hot-path box, \
        closure or container growth slipped past the static A9 gate — \
        hoist it or re-record the budget"
       kernel wpp unit budget)

let identity_diag ~kernel detail =
  D.error ~rule:"alloc/identity"
    (Printf.sprintf
       "%s kernel produced a different outcome inside the measured \
        allocation loop than with fresh buffers: %s" kernel detail)

let analyze ?(budgets = default_budgets) ?(pairs = 24) ?tamper ?taint ~seed g
    policies =
  let n = G.n g in
  if n < 3 then (0, [])
  else begin
    let policy = match policies with p :: _ -> p | [] -> P.make P.Security_third in
    let dep = dep_mixed n in
    let rng = Rng.create seed in
    let sample = sample_pairs rng n (max 1 pairs) in
    let k = Array.length sample in
    let items = ref 0 in
    let diags = ref [] in
    let add d = diags := !diags @ [ d ] in

    (* --- scalar engine ---------------------------------------------- *)
    let ws = E.Workspace.create 0 in
    let run_scalar (dst, attacker) =
      ignore (E.compute ~ws g policy dep ~dst ~attacker)
    in
    run_scalar sample.(0);
    (* warm: sizes the workspace *)
    let delta =
      measure (fun () ->
          Array.iter
            (fun p ->
              run_scalar p;
              match tamper with Some f -> f () | None -> ())
            sample)
    in
    items := !items + k;
    let wpp = delta /. float_of_int k in
    if wpp > budgets.scalar then
      add (over ~kernel:"scalar" ~wpp ~budget:budgets.scalar ());
    (let dst, attacker = sample.(0) in
     let got = E.compute ~ws g policy dep ~dst ~attacker in
     let want = E.compute g policy dep ~dst ~attacker in
     incr items;
     match Kernel.mismatch ~want ~got () with
     | None -> ()
     | Some detail -> add (identity_diag ~kernel:"scalar" detail));

    (* --- batched engine --------------------------------------------- *)
    let lanes = min B.max_lanes (n - 1) in
    let dst0, _ = sample.(0) in
    let attackers =
      Array.init lanes (fun l -> (dst0 + 1 + (l mod (n - 1))) mod n)
    in
    let bws = B.Workspace.create 0 in
    let run_batch () =
      ignore (B.compute ~ws:bws g policy dep ~dst:dst0 ~attackers)
    in
    run_batch ();
    let reps = max 1 (k / 4) in
    let bdelta = measure (fun () -> for _ = 1 to reps do run_batch () done) in
    items := !items + (reps * lanes);
    let bwpp = bdelta /. float_of_int (reps * lanes) in
    if bwpp > budgets.batch then
      add (over ~kernel:"batch" ~wpp:bwpp ~budget:budgets.batch ());
    (let b = B.compute ~ws:bws g policy dep ~dst:dst0 ~attackers in
     let got = B.decode b ~lane:0 in
     let want = E.compute g policy dep ~dst:dst0 ~attacker:(Some attackers.(0)) in
     incr items;
     match Kernel.mismatch ~want ~got () with
     | None -> ()
     | Some detail -> add (identity_diag ~kernel:"batch" detail));

    (* --- reference kernel ------------------------------------------- *)
    let rws = R.Workspace.create 0 in
    let run_ref (dst, attacker) =
      ignore (R.compute ~ws:rws g policy dep ~dst ~attacker)
    in
    run_ref sample.(0);
    let rk = max 1 (k / 4) in
    let rdelta =
      measure (fun () ->
          for i = 0 to rk - 1 do run_ref sample.(i mod k) done)
    in
    items := !items + rk;
    (* The reference kernel is list-based and allocates O(n) per pair by
       design; normalizing by n keeps its budget scale-free. *)
    let rwpp = rdelta /. float_of_int (rk * n) in
    if rwpp > budgets.reference then
      add
        (over ~unit:"minor words/pair/AS" ~kernel:"reference" ~wpp:rwpp
           ~budget:budgets.reference ());

    (* --- cold-vs-warm cache consistency ----------------------------- *)
    let cache = M.Cache.create () in
    let m_att = Array.init (min 4 (n - 1)) (fun i -> i + 1) in
    let m_dst = Array.init (min 4 n) (fun i -> n - 1 - i) in
    let hpairs = M.pairs ~attackers:m_att ~dsts:m_dst () in
    let cold = M.h_metric ~cache g policy dep hpairs in
    let warm = M.h_metric ~cache g policy dep hpairs in
    let warm = match taint with Some f -> f warm | None -> warm in
    items := !items + (2 * Array.length hpairs);
    if not (cold.M.lb = warm.M.lb && cold.M.ub = warm.M.ub) then
      add
        (D.error ~rule:"alloc/cache-consistency"
           (Printf.sprintf
              "H over %d pairs changed between the cold run and the \
               cache-served rerun (cold [%.17g, %.17g], warm [%.17g, \
               %.17g]); cached metric values must be pure in (graph, \
               deployment)"
              (Array.length hpairs) cold.M.lb cold.M.ub warm.M.lb
              warm.M.ub));
    (!items, !diags)
  end
