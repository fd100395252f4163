type strategy =
  | Prefix_hijack
  | Subprefix_hijack
  | Fabricated_path of int

let strategy_name = function
  | Prefix_hijack -> "prefix hijack"
  | Subprefix_hijack -> "subprefix hijack"
  | Fabricated_path 1 -> "fabricated path \"m d\""
  | Fabricated_path k -> Printf.sprintf "fabricated path (%d hops)" k

(* Encode each strategy as an actual RPKI validation question.  The
   victim [d] holds 10.0.0.0/8 under a ROA; what does the attacker [m]
   announce? *)
let passes_origin_validation strategy =
  let victim = 65000 and attacker = 64999 in
  let roas = [ Rpki.roa "10.0.0.0/8" victim ] in
  let announcement =
    match strategy with
    | Prefix_hijack ->
        (* m originates the very prefix. *)
        { Rpki.ann_prefix = Rpki.prefix "10.0.0.0/8"; as_path = [ attacker ] }
    | Subprefix_hijack ->
        { Rpki.ann_prefix = Rpki.prefix "10.1.0.0/16"; as_path = [ attacker ] }
    | Fabricated_path k ->
        (* m claims a path that terminates at the legitimate origin. *)
        let middle = List.init (max 0 (k - 1)) (fun i -> 64000 + i) in
        {
          Rpki.ann_prefix = Rpki.prefix "10.0.0.0/8";
          as_path = (attacker :: middle) @ [ victim ];
        }
  in
  Rpki.validate roas announcement <> Rpki.Invalid

type result = {
  strategy : strategy;
  filtered : bool;
  happy_lb : int;
  happy_ub : int;
  sources : int;
}

let happy_fraction r =
  ( Prelude.Stats.fraction r.happy_lb r.sources,
    Prelude.Stats.fraction r.happy_ub r.sources )

let of_counts strategy ~filtered (c : Metric.H_metric.counts) =
  {
    strategy;
    filtered;
    happy_lb = c.Metric.H_metric.happy_lb;
    happy_ub = c.Metric.H_metric.happy_ub;
    sources = c.Metric.H_metric.sources;
  }

let simulate ?(origin_auth = true) ?ws g policy dep ~dst ~attackers strategy =
  (match strategy with
  | Fabricated_path k when k < 1 ->
      invalid_arg "Attacks.simulate: Fabricated_path requires length >= 1"
  | _ -> ());
  let n = Topology.Graph.n g in
  Array.iter
    (fun m ->
      if m < 0 || m >= n then
        invalid_arg
          (Printf.sprintf "Attacks.simulate: attacker %d out of range" m);
      if m = dst then invalid_arg "Attacks.simulate: attacker = dst")
    attackers;
  let filtered = origin_auth && not (passes_origin_validation strategy) in
  let flat happy =
    { strategy; filtered; happy_lb = happy; happy_ub = happy; sources = n - 2 }
  in
  if filtered then begin
    (* The bogus announcement never enters route selection; sources see
       normal conditions, read off one normal-conditions lane.  A source
       is happy iff it has a route to the destination at all; each
       attacker's slot is excluded to keep [sources] comparable across
       strategies. *)
    let b =
      Routing.Batch.compute ?ws g policy dep ~dst
        ~attackers:[| Routing.Batch.no_attacker |]
    in
    let reached = (Metric.H_metric.happy_batch b).(0).Metric.H_metric.happy_lb in
    Array.map
      (fun m ->
        let own = Option.is_some (Routing.Batch.group_of b ~v:m ~lane:0) in
        flat (reached - Bool.to_int own))
      attackers
  end
  else
    match strategy with
    | Subprefix_hijack ->
        (* Longest-prefix forwarding: route selection for the covering
           prefix is irrelevant; any source with a perceivable route to
           the attacker sends the victim's traffic there. *)
        Array.map
          (fun attacker ->
            let reach_m = Routing.Reach.compute g ~root:attacker ~avoid:dst () in
            let reach_d = Routing.Reach.compute g ~root:dst ~avoid:attacker () in
            let happy = ref 0 in
            for v = 0 to n - 1 do
              if
                v <> dst && v <> attacker
                && Routing.Reach.any reach_d v
                && not (Routing.Reach.any reach_m v)
              then incr happy
            done;
            flat !happy)
          attackers
    | Prefix_hijack | Fabricated_path _ ->
        let attacker_claim =
          match strategy with Fabricated_path k -> k | _ -> 0
        in
        Array.map (of_counts strategy ~filtered:false)
          (Metric.H_metric.happy_batch
             (Routing.Batch.compute ~attacker_claim ?ws g policy dep ~dst
                ~attackers))
