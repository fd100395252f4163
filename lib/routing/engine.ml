type tiebreak = Batch.tiebreak = Bounds | Lowest_next_hop

module Packed = Batch.Packed

module Workspace = struct
  type t = { batch : Batch.Workspace.t; mutable outcome : Outcome.t option }

  let create n = { batch = Batch.Workspace.create n; outcome = None }
  let key = Domain.DLS.new_key (fun () -> create 0)
  let local () = Domain.DLS.get key
end

let compute ?tiebreak ?attacker_claim ?ws g policy dep ~dst ~attacker =
  let m =
    match attacker with
    | None -> Batch.no_attacker
    | Some m when m = Batch.no_attacker ->
        invalid_arg "Engine.compute: attacker -1 out of range"
    | Some m -> m
  in
  let attackers = [| m |] in
  let n = Topology.Graph.n g in
  match ws with
  | None ->
      let o = Outcome.create ~n ~dst ~attacker in
      Batch.decode_into
        (Batch.compute ?tiebreak ?attacker_claim g policy dep ~dst ~attackers)
        ~lane:0 o;
      o
  | Some ws ->
      let b =
        Batch.compute ?tiebreak ?attacker_claim ~ws:ws.Workspace.batch g policy
          dep ~dst ~attackers
      in
      let o =
        match ws.Workspace.outcome with
        | Some o -> Outcome.reset o ~n ~dst ~attacker
        | None -> Outcome.create ~n ~dst ~attacker
      in
      ws.Workspace.outcome <- Some o;
      Batch.decode_into b ~lane:0 o;
      o
