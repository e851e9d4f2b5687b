(* Spans around the traced run's calls into each layer.  They stay in
   memory; [to_chrome] renders them as Chrome trace-event JSON, which
   Perfetto and chrome://tracing open.  Single-threaded: only the
   traced run's main thread records. *)

open Fg_util

type span = {
  id : int;
  name : string;
  parent : int;  (** the enclosing span's id; 0 at the root *)
  t0 : int;  (** ns *)
  t1 : int;
}

let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let span name f =
  incr next_id;
  let id = !next_id in
  let parent = match !stack with p :: _ -> p | [] -> 0 in
  stack := id :: !stack;
  let t0 = Telemetry.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Telemetry.now_ns () in
      stack := List.tl !stack;
      recorded := { id; name; parent; t0; t1 } :: !recorded)
    f

let all () = List.rev !recorded

(* Per span name: total self time in ms (each span's duration minus the
   part its children cover) and the number of spans. *)
let self_times () =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace covered s.parent
          ((s.t1 - s.t0)
          + Option.value ~default:0 (Hashtbl.find_opt covered s.parent)))
    !recorded;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        s.t1 - s.t0 - Option.value ~default:0 (Hashtbl.find_opt covered s.id)
      in
      let ns, n =
        Option.value ~default:(0, 0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (ns + self, n + 1))
    !recorded;
  fun name ->
    match Hashtbl.find_opt by_name name with
    | Some (ns, n) -> (float_of_int ns /. 1e6, n)
    | None -> (0., 0)

let to_chrome () =
  let spans = all () in
  let origin = List.fold_left (fun m s -> min m s.t0) max_int spans in
  let us ns = Json.Float (float_of_int ns /. 1e3) in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.Str s.name);
                   ("cat", Json.Str "layer");
                   ("ph", Json.Str "X");
                   ("ts", us (s.t0 - origin));
                   ("dur", us (s.t1 - s.t0));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ("args", Json.Obj [ ("id", Json.Int s.id); ("parent", Json.Int s.parent) ]);
                 ])
             spans) );
      ("displayTimeUnit", Json.Str "ms");
    ]
