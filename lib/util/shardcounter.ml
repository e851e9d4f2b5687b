(* Per-domain sharded atomic counters (see the interface). *)

let n_shards = 16 (* power of two: shard pick is a mask *)

type t = int Atomic.t array

let create () : t = Array.init n_shards (fun _ -> Atomic.make 0)

let shard () = (Domain.self () :> int) land (n_shards - 1)
let incr (c : t) = Atomic.incr c.(shard ())
let decr (c : t) = Atomic.decr c.(shard ())

let add (c : t) n =
  if n <> 0 then ignore (Atomic.fetch_and_add c.(shard ()) n)

let read (c : t) = Array.fold_left (fun acc s -> acc + Atomic.get s) 0 c

type map = (string * int) list

(* Merge two sorted assoc lists with a combining function; entries
   that combine to <= 0 are dropped, preserving the map invariant. *)
let rec combine f a b =
  match (a, b) with
  | [], rest | rest, [] ->
      List.filter_map
        (fun (k, n) ->
          let n = f n 0 in
          if n > 0 then Some (k, n) else None)
        rest
  | (ka, na) :: ta, (kb, nb) :: tb ->
      let c = String.compare ka kb in
      if c < 0 then
        let n = f na 0 in
        if n > 0 then (ka, n) :: combine f ta b else combine f ta b
      else if c > 0 then
        let n = f 0 nb in
        if n > 0 then (kb, n) :: combine f a tb else combine f a tb
      else
        let n = f na nb in
        if n > 0 then (ka, n) :: combine f ta tb else combine f ta tb

let merge a b = combine ( + ) a b
let diff later earlier = combine (fun l e -> l - e) later earlier
let distinct m = List.length m
let total m = List.fold_left (fun acc (_, n) -> acc + n) 0 m
let keys m = List.map fst m

module Registry = struct
  module Smap = Map.Make (String)

  type counter = t

  let new_counter = create

  type nonrec t = counter Smap.t Atomic.t

  let create () : t = Atomic.make Smap.empty

  let rec find (r : t) key =
    let current = Atomic.get r in
    match Smap.find_opt key current with
    | Some c -> c
    | None ->
        let c = new_counter () in
        if Atomic.compare_and_set r current (Smap.add key c current) then c
        else find r key (* lost the race: someone else may have added it *)

  let hit r key = incr (find r key)

  let snapshot (r : t) =
    Smap.fold
      (fun key c acc ->
        let n = read c in
        if n > 0 then (key, n) :: acc else acc)
      (Atomic.get r) []
    |> List.rev (* Smap folds ascending; the reversed accumulator is sorted *)
end
