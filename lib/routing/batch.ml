(* Destination-major batched stable-state kernel — the one production
   label-setting solver (see batch.mli for the model).

   Attacker l is "lane" l, a bit in a native-int word (63 usable bits,
   {!Prelude.Bitset.word_bits}); a {!no_attacker} lane holds normal
   conditions.  Each AS holds a small set of {e groups}
   [(mask, word, parent)] with pairwise-disjoint masks, so an AS has at
   most [lanes] of them, and far from the attackers one monolithic
   group serves the whole word.  Every per-group operation is the
   single-route operation applied to a lane set:

   - relax: lanes whose group has a worse rank move to a freshly
     appended winner group; equal ranks merge with the tiebreak
     (Bounds: or the endpoint flags, keep the minimum parent; LNH:
     replace when the offered parent is strictly smaller) — splitting
     the group when only part of it ties; better ranks ignore the offer.
   - fix: popping rank r freezes every live rank-r group of the AS at
     once and expands the union of their masks per endpoint-flag class
     (at most three CSR scans per AS per rank level).

   Bit-identity with a per-attacker solve ({!Reference}) rests on two
   properties of the rank encoding: ranks are injective on (class,
   length, security), so all groups popped at one rank share every
   decoded field; and ranks are strictly monotone along route
   extensions, so all rank-r offers exist before the first rank-r pop
   (the queue is a monotone bucket queue) and equal-rank merge order is
   irrelevant because both tiebreaks are order-independent. *)

type tiebreak = Bounds | Lowest_next_hop

(* Packed candidate state.  One route abstraction is one int, laid out
   LSB-first as

     bit  0      to_m   — some equally-best route leads to the attacker
     bit  1      to_d   — some equally-best route leads to the destination
     bit  2      secure — the route is fully signed and validated
     bits 3-4    cls    — 0 customer / 1 peer / 2 provider / 3 root
     bits 5-28   len    — perceived path length (max_len = n + 1 < 2^24)
     bits 29-62  rank   — Policy.rank of (cls, len, secure)

   Because the rank is injective on (cls, len, secure) and sits above
   every other field, ordering two candidates by preference is a shift
   and an int test, and equal ranks imply equal decoded fields — the
   property that lets one word stand for a whole lane group.  The rank
   bound is O(max_len) for every model and LP variant
   (Policy.max_rank), so 34 rank bits dwarf any graph that fits the 24
   length bits. *)
module Packed = struct
  let to_m_flag = 1
  let to_d_flag = 2
  let secure_flag = 4
  let cls_shift = 3
  let len_shift = 5
  let len_bits = 24
  let len_mask = (1 lsl len_bits) - 1
  let rank_shift = len_shift + len_bits

  let pack ~rank ~cls_code ~len ~secure ~flags =
    (rank lsl rank_shift)
    lor (len lsl len_shift)
    lor (cls_code lsl cls_shift)
    lor (if secure then secure_flag else 0)
    lor flags

  let rank_of w = w lsr rank_shift
  let len_of w = (w lsr len_shift) land len_mask
  let cls_code_of w = (w lsr cls_shift) land 3
  let secure_of w = w land secure_flag <> 0
  let to_d_of w = w land to_d_flag <> 0
  let to_m_of w = w land to_m_flag <> 0

  let describe w =
    Printf.sprintf "rank=%d cls=%d len=%d secure=%b to_d=%b to_m=%b"
      (rank_of w) (cls_code_of w) (len_of w) (secure_of w) (to_d_of w)
      (to_m_of w)
end

let max_lanes = Prelude.Bitset.word_bits
let no_attacker = -1

module Workspace = struct
  (* Per-AS state ([fixed] lane mask, group count) is live only when
     [stamp.(v) = epoch], so reuse costs O(1), and the stamps also mark
     the ASes a result holds groups for.  A word of [lanes] lanes keeps
     its groups at [v * lanes + i] in the flat slabs; disjoint masks cap
     an AS's groups at [lanes], and the slabs hold [cap * width] slots
     for the widest word seen, so a one-lane solve needs n slots, not
     n * 63. *)
  type t = {
    mutable cap : int;
    mutable width : int; (* slab slots per AS: the widest word seen *)
    mutable epoch : int;
    mutable stamp : int array;
    mutable fixed : int array; (* per AS: mask of fixed lanes *)
    mutable gcnt : int array; (* per AS: live group count *)
    mutable gmask : int array; (* cap * width group slabs *)
    mutable gword : int array;
    mutable gparent : int array;
    mutable queue : Prelude.Bucket_queue.t;
    mutable table : Policy.Rank_table.t option;
        (* rank table of the last solve, reused while [table_key] and
           its [max_len] match *)
    mutable table_key : int;
  }

  let grow t ~n ~lanes =
    if t.cap < n then begin
      t.cap <- n;
      t.stamp <- Array.make n (-1);
      t.fixed <- Array.make n 0;
      t.gcnt <- Array.make n 0
    end;
    let width = max t.width lanes in
    if Array.length t.gmask < t.cap * width then begin
      t.width <- width;
      t.gmask <- Array.make (t.cap * width) 0;
      t.gword <- Array.make (t.cap * width) 0;
      t.gparent <- Array.make (t.cap * width) (-1)
    end

  let create cap =
    if cap < 0 then invalid_arg "Batch.Workspace.create: negative size";
    let t =
      {
        cap = 0;
        width = 0;
        epoch = 0;
        stamp = [||];
        fixed = [||];
        gcnt = [||];
        gmask = [||];
        gword = [||];
        gparent = [||];
        queue = Prelude.Bucket_queue.create ~max_rank:1;
        table = None;
        table_key = -1;
      }
    in
    grow t ~n:cap ~lanes:1;
    t

  let key = Domain.DLS.new_key (fun () -> create 0)
  let local () = Domain.DLS.get key

  (* Check out the buffers for one solve: the rank table (rebuilt only
     when the policy or graph size changes) and a cleared queue that
     fits its ranks. *)
  let checkout t ~n ~lanes policy ~max_len =
    grow t ~n ~lanes;
    t.epoch <- t.epoch + 1;
    let key = Policy.code policy in
    let tbl =
      match t.table with
      | Some tbl when t.table_key = key && tbl.Policy.Rank_table.max_len = max_len
        ->
          tbl
      | Some _ | None ->
          let tbl = Policy.Rank_table.make policy ~max_len in
          t.table <- Some tbl;
          t.table_key <- key;
          tbl
    in
    let max_rank = tbl.Policy.Rank_table.max_rank in
    if Prelude.Bucket_queue.capacity t.queue >= max_rank then
      Prelude.Bucket_queue.clear t.queue
    else t.queue <- Prelude.Bucket_queue.create ~max_rank;
    tbl
end

type t = {
  n : int;
  b_dst : int;
  b_lanes : int;
  b_attackers : int array; (* length = b_lanes; lane l's attacker *)
  ws : Workspace.t; (* owns the frozen group state *)
  epoch : int; (* result valid while ws.epoch = epoch *)
}

let n t = t.n
let dst t = t.b_dst
let lanes t = t.b_lanes

let live t =
  if t.ws.Workspace.epoch <> t.epoch then
    invalid_arg "Batch: result invalidated by a later compute on its workspace"

let attacker t ~lane =
  if lane < 0 || lane >= t.b_lanes then invalid_arg "Batch.attacker: bad lane";
  t.b_attackers.(lane)

let all_mask ~lanes = if lanes >= max_lanes then -1 else (1 lsl lanes) - 1

let compute ?(tiebreak = Bounds) ?(attacker_claim = 1) ?ws g policy dep ~dst
    ~attackers =
  if attacker_claim < 0 then invalid_arg "Batch.compute: attacker_claim < 0";
  let n = Topology.Graph.n g in
  let nlanes = Array.length attackers in
  if nlanes < 1 || nlanes > max_lanes then
    invalid_arg
      (Printf.sprintf "Batch.compute: lane count %d outside 1..%d" nlanes
         max_lanes);
  if dst < 0 || dst >= n then
    invalid_arg (Printf.sprintf "Batch.compute: dst %d out of range" dst);
  for l = 0 to nlanes - 1 do
    let m = attackers.(l) in
    if m <> no_attacker then begin
      if m < 0 || m >= n then
        invalid_arg
          (Printf.sprintf "Batch.compute: attacker %d out of range" m);
      if m = dst then invalid_arg "Batch.compute: attacker = dst"
    end
  done;
  let max_len = n + 1 in
  if max_len > Packed.len_mask then
    invalid_arg "Batch.compute: graph too large for the packed kernel";
  let ws = match ws with Some ws -> ws | None -> Workspace.create n in
  let tbl = Workspace.checkout ws ~n ~lanes:nlanes policy ~max_len in
  let queue = ws.Workspace.queue in
  let epoch = ws.Workspace.epoch in
  let stamp = ws.Workspace.stamp in
  let fixed = ws.Workspace.fixed in
  let gcnt = ws.Workspace.gcnt in
  let gmask = ws.Workspace.gmask in
  let gword = ws.Workspace.gword in
  let gparent = ws.Workspace.gparent in
  let csr = Topology.Graph.csr g in
  let adj = csr.Topology.Graph.Csr.adj in
  let xs = csr.Topology.Graph.Csr.xs in
  let mul = tbl.Policy.Rank_table.mul in
  let add = tbl.Policy.Rank_table.add in
  let kk = tbl.Policy.Rank_table.kk in
  (* First contact with an AS this solve: revalidate its lazily-reused
     per-AS state. *)
  let touch v =
    if Array.unsafe_get stamp v <> epoch then begin
      Array.unsafe_set stamp v epoch;
      Array.unsafe_set fixed v 0;
      Array.unsafe_set gcnt v 0
    end
  in
  let append w ~mask ~word ~parent =
    let c = Array.unsafe_get gcnt w in
    assert (c < nlanes);
    let gi = (w * nlanes) + c in
    Array.unsafe_set gmask gi mask;
    Array.unsafe_set gword gi word;
    Array.unsafe_set gparent gi parent;
    Array.unsafe_set gcnt w (c + 1)
  in
  (* Offer (cls, len, secure, flags) via next hop [u] to the lanes in
     [mask] at AS [w] — the single-route relax applied group-wise.  Lanes
     whose group loses the rank compare collect in [winners] and join
     the fresh lanes (no group yet) in one newly appended group.
     The scratch refs are hoisted to solve scope: [relax] runs once per
     (neighbor, offer) — the hottest loop in the batched kernel — and a
     non-flambda build would otherwise box three fresh refs per call. *)
  let remaining = ref 0 and winners = ref 0 and i = ref 0 in
  let relax w ~mask ~cls_code ~len ~secure ~flags ~parent:u =
    if len <= max_len then begin
      touch w;
      let live = mask land lnot (Array.unsafe_get fixed w) in
      if live <> 0 then begin
        let sbit = if secure then 0 else 1 in
        let j = (2 * cls_code) + sbit + if len <= kk then 0 else 6 in
        let r = (Array.unsafe_get mul j * len) + Array.unsafe_get add j in
        let base = w * nlanes in
        remaining := live;
        winners := 0;
        i := 0;
        while !i < Array.unsafe_get gcnt w && !remaining <> 0 do
          let gi = base + !i in
          let gm = Array.unsafe_get gmask gi in
          let inter = gm land !remaining in
          if inter = 0 then incr i
          else begin
            remaining := !remaining lxor inter;
            let gw = Array.unsafe_get gword gi in
            let cur = gw lsr Packed.rank_shift in
            if r < cur then begin
              (* These lanes take the new offer; shrink or delete the
                 losing group (delete swaps the last group in, so the
                 slot is re-examined). *)
              winners := !winners lor inter;
              if inter = gm then begin
                let c = Array.unsafe_get gcnt w - 1 in
                Array.unsafe_set gcnt w c;
                let last = base + c in
                Array.unsafe_set gmask gi (Array.unsafe_get gmask last);
                Array.unsafe_set gword gi (Array.unsafe_get gword last);
                Array.unsafe_set gparent gi (Array.unsafe_get gparent last)
              end
              else begin
                Array.unsafe_set gmask gi (gm lxor inter);
                incr i
              end
            end
            else begin
              (if r = cur then
                 match tiebreak with
                 | Bounds ->
                     (* Same rank implies same class/length/security;
                        accumulate endpoint flags, keep the lowest
                        representative hop — updating in place when the
                        whole group ties, splitting off the tying lanes
                        otherwise. *)
                     let gp = Array.unsafe_get gparent gi in
                     let nw = gw lor flags in
                     let np = if u < gp then u else gp in
                     if nw <> gw || np <> gp then
                       if inter = gm then begin
                         Array.unsafe_set gword gi nw;
                         Array.unsafe_set gparent gi np
                       end
                       else begin
                         Array.unsafe_set gmask gi (gm lxor inter);
                         append w ~mask:inter ~word:nw ~parent:np
                       end
                 | Lowest_next_hop ->
                     if u < Array.unsafe_get gparent gi then begin
                       let nw =
                         gw
                         land lnot (Packed.to_d_flag lor Packed.to_m_flag)
                         lor flags
                       in
                       if inter = gm then begin
                         Array.unsafe_set gword gi nw;
                         Array.unsafe_set gparent gi u
                       end
                       else begin
                         Array.unsafe_set gmask gi (gm lxor inter);
                         append w ~mask:inter ~word:nw ~parent:u
                       end
                     end);
              incr i
            end
          end
        done;
        let installs = !winners lor !remaining in
        if installs <> 0 then begin
          append w ~mask:installs
            ~word:(Packed.pack ~rank:r ~cls_code ~len ~secure ~flags)
            ~parent:u;
          Prelude.Bucket_queue.push queue ~rank:r w
        end
      end
    end
  in
  (* Propagate a fixed route to the lanes in [mask] at [u]'s neighbors,
     respecting Ex: one linear scan over the AS's CSR row, the offered
     class decided by the segment boundary the index has crossed.
     Customers of u always learn u's route (a provider route at them);
     peers and providers only when u's own route is a customer route
     (or u is a root). *)
  let expand u ~mask ~cls_code ~len ~secure ~flags ~exports_everywhere =
    let signed = secure in
    let len1 = len + 1 in
    let base = 3 * u in
    let c0 = Bigarray.Array1.unsafe_get xs base in
    let p0 = Bigarray.Array1.unsafe_get xs (base + 1) in
    let r0 = Bigarray.Array1.unsafe_get xs (base + 2) in
    let rend = Bigarray.Array1.unsafe_get xs (base + 3) in
    for i = c0 to p0 - 1 do
      let w = Bigarray.Array1.unsafe_get adj i in
      relax w ~mask ~cls_code:2 ~len:len1
        ~secure:(signed && Deployment.is_full dep w)
        ~flags ~parent:u
    done;
    if exports_everywhere || cls_code = 0 then begin
      for i = p0 to r0 - 1 do
        let w = Bigarray.Array1.unsafe_get adj i in
        relax w ~mask ~cls_code:1 ~len:len1
          ~secure:(signed && Deployment.is_full dep w)
          ~flags ~parent:u
      done;
      for i = r0 to rend - 1 do
        let w = Bigarray.Array1.unsafe_get adj i in
        relax w ~mask ~cls_code:0 ~len:len1
          ~secure:(signed && Deployment.is_full dep w)
          ~flags ~parent:u
      done
    end
  in
  (* Roots: the destination is fixed for every lane, its announcement
     signed when it deploys full or simplex S*BGP; each attacker only
     for its own lane (in the other lanes it is an ordinary AS), with
     the plain-BGP bogus route of the claimed length.  A
     [no_attacker] lane gets no bogus root: it holds normal
     conditions.  Root groups carry cls 3 in the word, like the
     Outcome. *)
  let every = all_mask ~lanes:nlanes in
  let signs = Deployment.signs_origin dep dst in
  touch dst;
  fixed.(dst) <- every;
  append dst ~mask:every
    ~word:
      (Packed.pack ~rank:0 ~cls_code:3 ~len:0 ~secure:signs
         ~flags:Packed.to_d_flag)
    ~parent:(-1);
  for l = 0 to nlanes - 1 do
    let m = attackers.(l) in
    if m <> no_attacker then begin
      touch m;
      fixed.(m) <- fixed.(m) lor (1 lsl l);
      append m ~mask:(1 lsl l)
        ~word:
          (Packed.pack ~rank:0 ~cls_code:3 ~len:attacker_claim ~secure:false
             ~flags:Packed.to_m_flag)
        ~parent:dst
    end
  done;
  expand dst ~mask:every ~cls_code:(-1) ~len:0 ~secure:signs
    ~flags:Packed.to_d_flag ~exports_everywhere:true;
  for l = 0 to nlanes - 1 do
    let m = attackers.(l) in
    if m <> no_attacker then
      expand m ~mask:(1 lsl l) ~cls_code:(-1) ~len:attacker_claim
        ~secure:false ~flags:Packed.to_m_flag ~exports_everywhere:true
  done;
  (* Drain: popping rank r freezes every live rank-r group of the AS at
     once.  Rank injectivity means they all decode to the same
     (cls, len, secure), so expansion needs one CSR walk per distinct
     endpoint-flag value (to_m / to_d / both) — the masks are unioned
     per flag class first. *)
  (* Scratch refs hoisted like [relax]'s; the [pop_exn]/[last_rank] pair
     avoids boxing an option per settled rank. *)
  let em1 = ref 0 and em2 = ref 0 and em3 = ref 0 in
  let shared = ref 0 in
  let rec drain () =
    if not (Prelude.Bucket_queue.is_empty queue) then begin
      let v = Prelude.Bucket_queue.pop_exn queue in
      let r = Prelude.Bucket_queue.last_rank queue in
      let fx = Array.unsafe_get fixed v in
      let base = v * nlanes in
      em1 := 0;
      em2 := 0;
      em3 := 0;
      shared := 0;
      for i = 0 to Array.unsafe_get gcnt v - 1 do
        let gm = Array.unsafe_get gmask (base + i) in
        if gm land fx = 0 then begin
          let gw = Array.unsafe_get gword (base + i) in
          if gw lsr Packed.rank_shift = r then begin
            shared := gw;
            match gw land (Packed.to_d_flag lor Packed.to_m_flag) with
            | 1 -> em1 := !em1 lor gm
            | 2 -> em2 := !em2 lor gm
            | _ -> em3 := !em3 lor gm
          end
        end
      done;
      let em_all = !em1 lor !em2 lor !em3 in
      if em_all <> 0 then begin
        Array.unsafe_set fixed v (fx lor em_all);
        let gw = !shared in
        let cls_code = Packed.cls_code_of gw in
        let len = Packed.len_of gw in
        let secure = Packed.secure_of gw in
        let m1 = !em1 and m2 = !em2 and m3 = !em3 in
        if m1 <> 0 then
          expand v ~mask:m1 ~cls_code ~len ~secure ~flags:1
            ~exports_everywhere:false;
        if m2 <> 0 then
          expand v ~mask:m2 ~cls_code ~len ~secure ~flags:2
            ~exports_everywhere:false;
        if m3 <> 0 then
          expand v ~mask:m3 ~cls_code ~len ~secure ~flags:3
            ~exports_everywhere:false
      end;
      drain ()
    end
  in
  drain ();
  {
    n;
    b_dst = dst;
    b_lanes = nlanes;
    b_attackers = Array.copy attackers;
    ws;
    epoch;
  }

(* Both scans below walk the ASes in order and skip those whose stamp
   predates this result; [decode_into] repeats the loop rather than
   pass [iter_fixed] a closure, since it is the one-lane face's hot
   path. *)
let iter_fixed t f =
  live t;
  let ws = t.ws in
  let stamp = ws.Workspace.stamp in
  let gcnt = ws.Workspace.gcnt in
  let gmask = ws.Workspace.gmask in
  let gword = ws.Workspace.gword in
  let gparent = ws.Workspace.gparent in
  for v = 0 to t.n - 1 do
    if stamp.(v) = t.epoch then begin
      let base = v * t.b_lanes in
      for i = base to base + gcnt.(v) - 1 do
        f ~v ~mask:gmask.(i) ~word:gword.(i) ~parent:gparent.(i)
      done
    end
  done

let decode_into t ~lane o =
  live t;
  if lane < 0 || lane >= t.b_lanes then
    invalid_arg "Batch.decode_into: bad lane";
  let m = t.b_attackers.(lane) in
  if
    Outcome.n o <> t.n
    || Outcome.dst o <> t.b_dst
    ||
    match Outcome.attacker o with
    | None -> m <> no_attacker
    | Some a -> a <> m
  then invalid_arg "Batch.decode_into: outcome set up for another lane";
  let ws = t.ws in
  let stamp = ws.Workspace.stamp in
  let gcnt = ws.Workspace.gcnt in
  let gmask = ws.Workspace.gmask in
  let gword = ws.Workspace.gword in
  let gparent = ws.Workspace.gparent in
  let bit = 1 lsl lane in
  for v = 0 to t.n - 1 do
    if stamp.(v) = t.epoch then begin
      let base = v * t.b_lanes in
      for i = base to base + gcnt.(v) - 1 do
        if gmask.(i) land bit <> 0 then begin
          let word = gword.(i) and parent = gparent.(i) in
          if Packed.cls_code_of word = 3 then
            Outcome.fix_root o v ~len:(Packed.len_of word)
              ~secure:(Packed.secure_of word) ~to_d:(Packed.to_d_of word)
              ~to_m:(Packed.to_m_of word) ~parent
          else
            Outcome.fix_code o v ~cls_code:(Packed.cls_code_of word)
              ~len:(Packed.len_of word) ~secure:(Packed.secure_of word)
              ~to_d:(Packed.to_d_of word) ~to_m:(Packed.to_m_of word) ~parent
        end
      done
    end
  done

let decode ?into t ~lane =
  if lane < 0 || lane >= t.b_lanes then invalid_arg "Batch.decode: bad lane";
  let attacker =
    match t.b_attackers.(lane) with m when m = no_attacker -> None | m -> Some m
  in
  let o =
    match into with
    | Some o -> Outcome.reset o ~n:t.n ~dst:t.b_dst ~attacker
    | None -> Outcome.create ~n:t.n ~dst:t.b_dst ~attacker
  in
  decode_into t ~lane o;
  o

let group_of t ~v ~lane =
  live t;
  if lane < 0 || lane >= t.b_lanes then invalid_arg "Batch.group_of: bad lane";
  if v < 0 || v >= t.n then invalid_arg "Batch.group_of: AS out of range";
  let ws = t.ws in
  if ws.Workspace.stamp.(v) <> t.epoch then None
  else begin
    let bit = 1 lsl lane in
    let base = v * t.b_lanes in
    let res = ref None in
    for i = 0 to ws.Workspace.gcnt.(v) - 1 do
      if ws.Workspace.gmask.(base + i) land bit <> 0 then
        res :=
          Some
            ( ws.Workspace.gmask.(base + i),
              ws.Workspace.gword.(base + i),
              ws.Workspace.gparent.(base + i) )
    done;
    !res
  end
