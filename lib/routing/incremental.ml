(* Dirty-cone computation for cross-step rollout evaluation.

   The engine's stable state for a pair (attacker m, destination d)
   reads the deployment in exactly two places: [signs_origin dep d] for
   the root announcement, and [is_full dep w] when a *signed* offer
   reaches AS [w].  Signed offers travel only along perceivable routes
   to [d] whose every hop validates and re-signs — i.e. along chains
   inside the Full-restricted {!Reach} closure of [d].  So when a
   deployment changes S -> S', the outcome of (m, d) can only change if

   - [d]'s own origin-signing status changed, or
   - some AS whose Full status changed lies in the Full-restricted
     perceivable closure of [d] under S or under S' (a "witness").

   Witnesses equal to the attacker never matter: the attacker is fixed
   as a root and never validates, re-signs or re-exports a legitimate
   route, so its own Full bit is never consulted for its own pair.  The
   cone is conservative — a dirty verdict does not imply the outcome
   differs — but a clean verdict is sound, which the incremental check
   pass and the qcheck properties enforce end to end. *)

type status = Clean | All_dirty | Witnesses of int array

type t = {
  monotone : bool;
  changed_full : int array;
  changed_signs : int array;
  status : (int, status) Hashtbl.t; (* per requested destination *)
  n_clean : int;
  n_dirty : int;
      (* tallied during the deterministic pass over [dsts]; [counts]
         must not fold over the hash table, whose order is arbitrary *)
}

let changed_sets old_dep new_dep =
  let n = Deployment.n old_dep in
  let full = ref [] and signs = ref [] in
  for v = n - 1 downto 0 do
    if Bool.not (Bool.equal (Deployment.is_full old_dep v) (Deployment.is_full new_dep v))
    then full := v :: !full;
    if
      Bool.not
        (Bool.equal
           (Deployment.signs_origin old_dep v)
           (Deployment.signs_origin new_dep v))
    then signs := v :: !signs
  done;
  (Array.of_list !full, Array.of_list !signs)

let compute g ~old_dep ~new_dep ~dsts =
  let n = Topology.Graph.n g in
  if Deployment.n old_dep <> n || Deployment.n new_dep <> n then
    invalid_arg "Incremental.compute: deployment sizes disagree with the graph";
  let changed_full, changed_signs = changed_sets old_dep new_dep in
  let monotone = Deployment.subset old_dep new_dep in
  let signs_changed = Prelude.Bitset.create n in
  Array.iter (Prelude.Bitset.add signs_changed) changed_signs;
  let status = Hashtbl.create (Array.length dsts) in
  let n_clean = ref 0 and n_dirty = ref 0 in
  let no_full_change = Array.length changed_full = 0 in
  Array.iter
    (fun d ->
      if d < 0 || d >= n then
        invalid_arg "Incremental.compute: destination out of range";
      if not (Hashtbl.mem status d) then begin
        let st =
          if Prelude.Bitset.mem signs_changed d then All_dirty
          else if not (Deployment.signs_origin new_dep d) then
            (* Signing status is unchanged and off: no secure route ever
               exists toward d under either deployment. *)
            Clean
          else if no_full_change then Clean
          else begin
            (* d signs in both worlds: witnesses are the changed-Full
               ASes inside the secure-perceivable cone of d.  Under a
               monotone delta the old cone is contained in the new one,
               so one closure suffices. *)
            let reach_new =
              Reach.compute g ~root:d ~only:(Deployment.is_full new_dep) ()
            in
            let member =
              if monotone then fun w -> Reach.any reach_new w
              else begin
                let reach_old =
                  Reach.compute g ~root:d ~only:(Deployment.is_full old_dep) ()
                in
                fun w -> Reach.any reach_new w || Reach.any reach_old w
              end
            in
            let ws =
              Array.of_list
                (List.filter member (Array.to_list changed_full))
            in
            if Array.length ws = 0 then Clean else Witnesses ws
          end
        in
        (match st with
        | Clean -> incr n_clean
        | All_dirty | Witnesses _ -> incr n_dirty);
        Hashtbl.replace status d st
      end)
    dsts;
  {
    monotone;
    changed_full;
    changed_signs;
    status;
    n_clean = !n_clean;
    n_dirty = !n_dirty;
  }

let monotone t = t.monotone
let changed_full t = Array.copy t.changed_full
let changed_signs t = Array.copy t.changed_signs

let dirty_dst t d =
  match Hashtbl.find_opt t.status d with
  | None -> true (* not in the requested set: stay conservative *)
  | Some Clean -> false
  | Some (All_dirty | Witnesses _) -> true

let dirty_pair t ~attacker ~dst =
  match Hashtbl.find_opt t.status dst with
  | None -> true
  | Some Clean -> false
  | Some All_dirty -> true
  | Some (Witnesses ws) -> Array.exists (fun w -> w <> attacker) ws

let counts t = (t.n_clean, t.n_dirty)
