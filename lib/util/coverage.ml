(* Decision-point coverage map (see the interface).

   The sharded-counter mechanics live in Shardcounter — this module is
   the process-wide probe registry plus the coverage-map codecs layered
   on top of the shared merge algebra. *)

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

let to_text m =
  let b = Buffer.create (16 * List.length m) in
  List.iter
    (fun (k, n) ->
      Buffer.add_string b k;
      Buffer.add_char b '\t';
      Buffer.add_string b (string_of_int n);
      Buffer.add_char b '\n')
    m;
  Buffer.contents b

let of_text s =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         match String.index_opt line '\t' with
         | None -> None
         | Some i -> (
             let key = String.sub line 0 i in
             let count =
               String.sub line (i + 1) (String.length line - i - 1)
             in
             match int_of_string_opt count with
             | Some n when n > 0 && key <> "" -> Some (key, n)
             | _ -> None))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.fold_left
       (fun acc (k, n) ->
         match acc with
         | (k', n') :: rest when k' = k -> (k', n' + n) :: rest
         | _ -> (k, n) :: acc)
       []
  |> List.rev

let to_json m = Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) m)

let of_json = function
  | Json.Obj fields ->
      List.filter_map
        (function
          | k, Json.Int n when n > 0 && k <> "" -> Some (k, n) | _ -> None)
        fields
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  | _ -> []
