type t = {
  customer_set : Prelude.Bitset.t;
  peer_set : Prelude.Bitset.t;
  provider_set : Prelude.Bitset.t;
  root : int;
}

let compute g ~root ?(avoid = -1) ?only () =
  let n = Topology.Graph.n g in
  if root < 0 || root >= n then invalid_arg "Reach.compute: root out of range";
  if root = avoid then invalid_arg "Reach.compute: root = avoid";
  let customer_set = Prelude.Bitset.create n in
  let peer_set = Prelude.Bitset.create n in
  let provider_set = Prelude.Bitset.create n in
  let allowed = match only with None -> fun _ -> true | Some f -> f in
  let ok v = v <> avoid && v <> root && allowed v in
  (* Reachability is O(E) queue work over the CSR segments; the packed
     kernels ({!Engine}/{!Batch}), not these closures, are the
     unsafe-access hot path. *)
  let csr = Topology.Graph.csr g in
  let adj = csr.Topology.Graph.Csr.adj and xs = csr.Topology.Graph.Csr.xs in
  (* Segment [s] of [v]'s row: 0 customers, 1 peers, 2 providers. *)
  let iter_seg s f v =
    for i = xs.{(3 * v) + s} to xs.{(3 * v) + s + 1} - 1 do
      f adj.{i}
    done
  in
  (* Customer routes: climb customer-to-provider edges from the root. *)
  let queue = Queue.create () in
  let push_customer v =
    if ok v && not (Prelude.Bitset.mem customer_set v) then begin
      Prelude.Bitset.add customer_set v;
      Queue.add v queue
    end
  in
  iter_seg 2 push_customer root;
  while not (Queue.is_empty queue) do
    iter_seg 2 push_customer (Queue.pop queue)
  done;
  (* Peer routes: one peer hop off a customer route (or off the root). *)
  for v = 0 to n - 1 do
    if ok v then begin
      let i = ref xs.{(3 * v) + 1} and hi = xs.{(3 * v) + 2} in
      while !i < hi do
        let u = adj.{!i} in
        if u = root || Prelude.Bitset.mem customer_set u then begin
          Prelude.Bitset.add peer_set v;
          i := hi
        end
        else incr i
      done
    end
  done;
  (* Provider routes: close downward from anything reachable. *)
  let push_provider v =
    if ok v && not (Prelude.Bitset.mem provider_set v) then begin
      Prelude.Bitset.add provider_set v;
      Queue.add v queue
    end
  in
  let seed u = iter_seg 0 push_provider u in
  seed root;
  Prelude.Bitset.iter_set seed customer_set;
  Prelude.Bitset.iter_set seed peer_set;
  while not (Queue.is_empty queue) do
    seed (Queue.pop queue)
  done;
  { customer_set; peer_set; provider_set; root }

let customer t v = Prelude.Bitset.mem t.customer_set v
let peer t v = Prelude.Bitset.mem t.peer_set v
let provider t v = Prelude.Bitset.mem t.provider_set v
let any t v = customer t v || peer t v || provider t v

let best_class t v =
  if customer t v then Some Policy.Customer
  else if peer t v then Some Policy.Peer
  else if provider t v then Some Policy.Provider
  else None

let in_class t cls v =
  match cls with
  | Policy.Customer -> customer t v
  | Policy.Peer -> peer t v
  | Policy.Provider -> provider t v

(* --- Lane-parallel closures -------------------------------------------

   Up to [Prelude.Bitset.word_bits] closures at once, one per bit of a
   native-int lane word (bit-parallel multi-source BFS: Then et al.,
   "The More the Merrier", VLDB 2015).  Per AS we keep three lane words
   — the lanes in which it has a perceivable customer, peer and provider
   route — and propagate whole words along the same three phases as
   {!compute}.  [src.(v)] holds the lanes rooted at [v]; [bad.(v)]
   the lanes in which [v] may join no set (its own root lanes and the
   lanes avoiding it).  Every phase is a monotone fixpoint, so a FIFO
   worklist that re-queues an AS whenever it gains lanes reaches the
   same sets as one scalar closure per lane, in any order. *)

module Lanes = struct
  (* Every buffer is grown on demand and cleared per compute, so one
     [t] serves any number of closures without allocating. *)
  type t = {
    mutable n : int;
    mutable src : int array;
    mutable bad : int array;
    mutable cust : int array;
    mutable peer : int array;
    mutable prov : int array;
    mutable queue : int array;
    mutable queued : Bytes.t;
  }

  let create () =
    {
      n = 0;
      src = [||];
      bad = [||];
      cust = [||];
      peer = [||];
      prov = [||];
      queue = [||];
      queued = Bytes.empty;
    }

  let reset t n =
    if Array.length t.src < n then begin
      t.src <- Array.make n 0;
      t.bad <- Array.make n 0;
      t.cust <- Array.make n 0;
      t.peer <- Array.make n 0;
      t.prov <- Array.make n 0;
      t.queue <- Array.make n 0;
      t.queued <- Bytes.make n '\000'
    end
    else begin
      Array.fill t.src 0 n 0;
      Array.fill t.bad 0 n 0;
      Array.fill t.cust 0 n 0;
      Array.fill t.peer 0 n 0;
      Array.fill t.prov 0 n 0
    end;
    t.n <- n

  let compute t g ~roots ~avoid =
    let n = Topology.Graph.n g in
    let nl = Array.length roots in
    if nl < 1 || nl > Prelude.Bitset.word_bits then
      invalid_arg "Reach.Lanes.compute: lane count out of range";
    if Array.length avoid <> nl then
      invalid_arg "Reach.Lanes.compute: roots and avoid differ in length";
    Array.iteri
      (fun l r ->
        if r < 0 || r >= n then
          invalid_arg "Reach.Lanes.compute: root out of range";
        if r = avoid.(l) then invalid_arg "Reach.Lanes.compute: root = avoid")
      roots;
    reset t n;
    let src = t.src and bad = t.bad and cust = t.cust in
    let peer = t.peer and prov = t.prov in
    let queue = t.queue and queued = t.queued in
    for l = 0 to nl - 1 do
      let r = roots.(l) and a = avoid.(l) in
      let bit = 1 lsl l in
      src.(r) <- src.(r) lor bit;
      bad.(r) <- bad.(r) lor bit;
      (* Like [compute], an avoid outside the graph (-1) avoids nothing. *)
      if a >= 0 && a < n then bad.(a) <- bad.(a) lor bit
    done;
    let csr = Topology.Graph.csr g in
    let adj = csr.Topology.Graph.Csr.adj in
    let xs = csr.Topology.Graph.Csr.xs in
    (* Circular worklist: an AS sits in it at most once at a time (the
       queued flags are all clear again whenever it drains). *)
    let head = ref 0 and size = ref 0 in
    let push v =
      if Bytes.unsafe_get queued v = '\000' then begin
        Bytes.unsafe_set queued v '\001';
        let tail = !head + !size in
        Array.unsafe_set queue (if tail >= n then tail - n else tail) v;
        incr size
      end
    in
    let pop () =
      let v = Array.unsafe_get queue !head in
      head := (if !head + 1 = n then 0 else !head + 1);
      decr size;
      Bytes.unsafe_set queued v '\000';
      v
    in
    (* Customer routes: climb customer-to-provider edges from the roots. *)
    Array.iter push roots;
    while !size > 0 do
      let u = pop () in
      let out = Array.unsafe_get src u lor Array.unsafe_get cust u in
      for i =
        Bigarray.Array1.unsafe_get xs ((3 * u) + 2)
        to Bigarray.Array1.unsafe_get xs ((3 * u) + 3) - 1
      do
        let p = Bigarray.Array1.unsafe_get adj i in
        let cp = Array.unsafe_get cust p in
        let gain = out land lnot (Array.unsafe_get bad p lor cp) in
        if gain <> 0 then begin
          Array.unsafe_set cust p (cp lor gain);
          push p
        end
      done
    done;
    (* Peer routes: one peer hop off a customer route (or off a root). *)
    for u = 0 to n - 1 do
      let out = Array.unsafe_get src u lor Array.unsafe_get cust u in
      if out <> 0 then
        for i =
          Bigarray.Array1.unsafe_get xs ((3 * u) + 1)
          to Bigarray.Array1.unsafe_get xs ((3 * u) + 2) - 1
        do
          let p = Bigarray.Array1.unsafe_get adj i in
          Array.unsafe_set peer p
            (Array.unsafe_get peer p
            lor (out land lnot (Array.unsafe_get bad p)))
        done
    done;
    (* Provider routes: close downward from anything reachable. *)
    for u = 0 to n - 1 do
      if
        Array.unsafe_get src u lor Array.unsafe_get cust u
        lor Array.unsafe_get peer u
        <> 0
      then push u
    done;
    while !size > 0 do
      let u = pop () in
      let out =
        Array.unsafe_get src u lor Array.unsafe_get cust u
        lor Array.unsafe_get peer u lor Array.unsafe_get prov u
      in
      for i =
        Bigarray.Array1.unsafe_get xs (3 * u)
        to Bigarray.Array1.unsafe_get xs ((3 * u) + 1) - 1
      do
        let c = Bigarray.Array1.unsafe_get adj i in
        let pc = Array.unsafe_get prov c in
        let gain = out land lnot (Array.unsafe_get bad c lor pc) in
        if gain <> 0 then begin
          Array.unsafe_set prov c (pc lor gain);
          push c
        end
      done
    done

  let word t a v =
    if v < 0 || v >= t.n then invalid_arg "Reach.Lanes: AS out of range";
    Array.unsafe_get a v

  let customer t v = word t t.cust v
  let peer t v = word t t.peer v
  let provider t v = word t t.prov v
end
