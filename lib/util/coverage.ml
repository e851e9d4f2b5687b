(* Decision-point coverage map (see the interface).

   The sharded-counter mechanics live in Shardcounter — this module is
   the process-wide probe registry plus the coverage-map JSON view
   layered on top of the shared merge algebra. *)

type probe = Shardcounter.t

let registry = Shardcounter.Registry.create ()
let probe key = Shardcounter.Registry.find registry key
let hit = Shardcounter.incr
let hit_key key = Shardcounter.Registry.hit registry key

type map = Shardcounter.map

let snapshot () = Shardcounter.Registry.snapshot registry
let merge = Shardcounter.merge
let diff = Shardcounter.diff
let distinct = Shardcounter.distinct
let total = Shardcounter.total
let keys = Shardcounter.keys

let to_json m = Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) m)
