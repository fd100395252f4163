type downgrade = {
  secure_normal : int;
  downgraded : int;
  secure_after : int;
  sources : int;
}

type root_cause = {
  sources : int;
  rc_secure_normal : int;
  rc_downgraded : int;
  rc_wasted : int;
  rc_protecting : int;
  rc_benefit : int;
  rc_damage : int;
  rc_happy_base : int;
  rc_happy_dep : int;
}

let root_cause_zero =
  {
    sources = 0;
    rc_secure_normal = 0;
    rc_downgraded = 0;
    rc_wasted = 0;
    rc_protecting = 0;
    rc_benefit = 0;
    rc_damage = 0;
    rc_happy_base = 0;
    rc_happy_dep = 0;
  }

let root_cause_add a b =
  {
    sources = a.sources + b.sources;
    rc_secure_normal = a.rc_secure_normal + b.rc_secure_normal;
    rc_downgraded = a.rc_downgraded + b.rc_downgraded;
    rc_wasted = a.rc_wasted + b.rc_wasted;
    rc_protecting = a.rc_protecting + b.rc_protecting;
    rc_benefit = a.rc_benefit + b.rc_benefit;
    rc_damage = a.rc_damage + b.rc_damage;
    rc_happy_base = a.rc_happy_base + b.rc_happy_base;
    rc_happy_dep = a.rc_happy_dep + b.rc_happy_dep;
  }

type collateral = { benefit : int; damage : int; insecure_sources : int }

(* One destination word, frozen into per-AS lane masks.  Bit 0 is the
   normal lane, bit [l + 1] attacker [l]; root groups (class 3) are
   skipped, so the destination and each lane's own attacker carry no
   bit — exactly the ASes that are not sources of that lane. *)
type word = {
  g_n : int;
  w_dep : Deployment.t;
  w_dst : int;
  w_attackers : int array;
  secure : int array; (* per AS: lanes whose route is secure *)
  happy : int array; (* per AS: lanes whose route is happy (lower bound) *)
  nparent : int array; (* per AS: normal lane's representative next hop *)
  nlen : int array; (* per AS: normal lane's route length, -1 unreached *)
}

let max_attackers = Routing.Batch.max_lanes - 1

let word ?ws g policy dep ~dst ~attackers =
  let n = Topology.Graph.n g in
  (* The batched kernel checks every other id; [no_attacker] would
     silently make a second normal lane. *)
  if Array.mem Routing.Batch.no_attacker attackers then
    invalid_arg "Phenomena.word: attacker -1 out of range";
  let b =
    Routing.Batch.compute ?ws g policy dep ~dst
      ~attackers:(Array.append [| Routing.Batch.no_attacker |] attackers)
  in
  let secure = Array.make n 0 and happy = Array.make n 0 in
  let nparent = Array.make n (-1) and nlen = Array.make n (-1) in
  Routing.Batch.iter_fixed b (fun ~v ~mask ~word ~parent ->
      let open Routing.Batch.Packed in
      if cls_code_of word <> 3 then begin
        if secure_of word then secure.(v) <- secure.(v) lor mask;
        if to_d_of word && not (to_m_of word) then
          happy.(v) <- happy.(v) lor mask;
        if mask land 1 <> 0 then begin
          nparent.(v) <- parent;
          nlen.(v) <- len_of word
        end
      end);
  {
    g_n = n;
    w_dep = dep;
    w_dst = dst;
    w_attackers = Array.copy attackers;
    secure;
    happy;
    nparent;
    nlen;
  }

let secure_routes w = Array.fold_left (fun c m -> c + (m land 1)) 0 w.secure

(* The attacked lanes of a word, and per AS the lanes whose attacker it
   is (a lane's attacker is not one of its sources). *)
let attacked w =
  let lanes = Array.length w.w_attackers + 1 in
  (if lanes >= Routing.Batch.max_lanes then -1 else (1 lsl lanes) - 1)
  land lnot 1

let own w =
  let own = Array.make w.g_n 0 in
  Array.iteri (fun l m -> own.(m) <- own.(m) lor (1 lsl (l + 1))) w.w_attackers;
  own

(* Per AS, the attacked lanes whose attacker lies on the AS's normal
   route (the AS itself included): a closure down the normal lane's
   representative parents — the chain [Outcome.path] follows — in
   order of normal route length, so every parent is done before its
   children. *)
let through w =
  let t = own w in
  let by_len = Array.make (Array.fold_left max 0 w.nlen + 1) [] in
  Array.iteri (fun v l -> if l > 0 then by_len.(l) <- v :: by_len.(l)) w.nlen;
  Array.iter (List.iter (fun v -> t.(v) <- t.(v) lor t.(w.nparent.(v)))) by_len;
  t

(* Per-domain lane counters of the folds below. *)
let lane_counts = Domain.DLS.new_key Prelude.Lane_count.create

let counter w ~blocks =
  let c = Domain.DLS.get lane_counts in
  Prelude.Lane_count.reset c ~blocks ~max:w.g_n;
  c

let same_lanes fn a b =
  let aa = a.w_attackers and ba = b.w_attackers in
  if
    a.w_dst <> b.w_dst || a.g_n <> b.g_n
    || Array.length aa <> Array.length ba
    || not (Array.for_all2 Int.equal aa ba)
  then invalid_arg (fn ^ ": words of different lanes")

let downgrades w =
  let through = through w in
  let lanes = attacked w in
  let c = counter w ~blocks:2 in
  for v = 0 to w.g_n - 1 do
    let sec = w.secure.(v) in
    if v <> w.w_dst && sec land 1 <> 0 then begin
      (* Sources whose normal route runs through the attacker lose it
         no matter what; Theorem 3.1 (and its sec-1st guarantee)
         exempts them, so they are not counted as protocol
         downgrades. *)
      let sn = lanes land lnot through.(v) in
      Prelude.Lane_count.add c 0 sn;
      Prelude.Lane_count.add c 1 (sn land sec)
    end
  done;
  Array.init (Array.length w.w_attackers) (fun l ->
      let secure_normal = Prelude.Lane_count.count c 0 (l + 1) in
      let secure_after = Prelude.Lane_count.count c 1 (l + 1) in
      {
        secure_normal;
        downgraded = secure_normal - secure_after;
        secure_after;
        sources = w.g_n - 2;
      })

let root_cause ~base w =
  same_lanes "Phenomena.root_cause" base w;
  let own = own w in
  let lanes = attacked w in
  let c = counter w ~blocks:8 in
  let add blk m = Prelude.Lane_count.add c blk (m land lanes) in
  for v = 0 to w.g_n - 1 do
    if v <> w.w_dst then begin
      let sn = if w.secure.(v) land 1 <> 0 then lnot own.(v) else 0 in
      let sa = w.secure.(v) in
      let hb = base.happy.(v) and hd = w.happy.(v) in
      add 0 sn;
      add 1 (sn land lnot sa);
      add 2 (sn land sa land hb);
      add 3 (sn land sa land lnot hb);
      if not (Deployment.is_full w.w_dep v) then begin
        add 4 (lnot hb land hd);
        add 5 (hb land lnot hd)
      end;
      add 6 hb;
      add 7 hd
    end
  done;
  Array.init (Array.length w.w_attackers) (fun l ->
      let k blk = Prelude.Lane_count.count c blk (l + 1) in
      {
        sources = w.g_n - 2;
        rc_secure_normal = k 0;
        rc_downgraded = k 1;
        rc_wasted = k 2;
        rc_protecting = k 3;
        rc_benefit = k 4;
        rc_damage = k 5;
        rc_happy_base = k 6;
        rc_happy_dep = k 7;
      })

let collateral ~baseline w =
  same_lanes "Phenomena.collateral" baseline w;
  if not (Deployment.subset baseline.w_dep w.w_dep) then
    invalid_arg "Phenomena.collateral: baseline not a subset of deployment";
  let lanes = attacked w in
  let c = counter w ~blocks:2 in
  let insecure = ref 0 in
  for v = 0 to w.g_n - 1 do
    if v <> w.w_dst && not (Deployment.is_full w.w_dep v) then begin
      incr insecure;
      let hs = baseline.happy.(v) and hl = w.happy.(v) in
      Prelude.Lane_count.add c 0 (lnot hs land hl land lanes);
      Prelude.Lane_count.add c 1 (hs land lnot hl land lanes)
    end
  done;
  Array.mapi
    (fun l m ->
      {
        benefit = Prelude.Lane_count.count c 0 (l + 1);
        damage = Prelude.Lane_count.count c 1 (l + 1);
        insecure_sources =
          (!insecure - if Deployment.is_full w.w_dep m then 0 else 1);
      })
    w.w_attackers
