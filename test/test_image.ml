(* Prelude images: a session loaded from the image fgc embeds must be
   indistinguishable from one that checks the prelude — every report,
   translation and theorem report byte-identical, in both resolution
   modes — and must extend the same way.  Loaded sessions get families
   of their own, so sessions sharing one unit cache never replay each
   other's units; and the build-time generator is deterministic.

   This process installs no image: [Session.of_config] checks, and the
   images are loaded explicitly with [Session.Image.load]. *)

open Fg_core
module Diag = Fg_util.Diag
module Embedded = Fg_prelude_image.Prelude_image

let modes =
  [
    (Resolution.Lexical, Embedded.lexical);
    (Resolution.Global, Embedded.global);
  ]

let config mode =
  Session.Config.with_standard_prelude
    { Session.Config.default with resolution = mode }

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let program_files () =
  List.concat_map
    (fun dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".fg")
      |> List.sort String.compare
      |> List.map (fun f ->
             let path = Filename.concat dir f in
             (path, read_file path)))
    [ "../programs"; "../programs/errors"; "../programs/fuzz_regressions" ]

let gen_programs n =
  List.init n (fun i ->
      (Printf.sprintf "gen-%d" i, Pretty.exp_to_string (Gen.program_of_seed i)))

(* Everything a program shows through a session: the recovering run's
   JSON report, the translation and the theorem report (or the
   diagnostic each raised). *)
let render s (file, src) =
  let or_diag f =
    match Diag.protect f with Ok x -> x | Error d -> Diag.to_string d
  in
  String.concat "\n--\n"
    [
      Fg_util.Json.to_string
        (Jsonview.json_of_run_report ~file (Session.run_full ~file s src));
      or_diag (fun () ->
          Fg_systemf.Pretty.exp_to_string (Session.translate ~file s src));
      or_diag (fun () ->
          let r = Session.verify ~file s src in
          String.concat " / "
            [
              Pretty.ty_to_string r.Theorems.fg_ty;
              Fg_systemf.Pretty.ty_to_string r.Theorems.expected_f_ty;
              Fg_systemf.Pretty.ty_to_string r.Theorems.f_ty;
            ]);
    ]

let test_image_matches_check () =
  let programs = program_files () @ gen_programs 300 in
  List.iter
    (fun (mode, image) ->
      let checked = Session.of_config (config mode) in
      let loaded = Session.Image.load (config mode) image in
      List.iter
        (fun ((file, _) as p) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: %s" (Resolution.mode_name mode) file)
            (render checked p) (render loaded p))
        programs)
    modes

(* Extensions on top of the prelude, one per frame kind a prelude
   extension can add — a let, a concept, a model, a type alias — and a
   redefinition that shadows a prelude binding (which invalidates its
   cached dependents). *)
let extensions =
  [
    "let twice = fun (x : int) => x + x in";
    "concept Sized<t> { size : fn(t) -> int; } in\n\
     model Sized<int> { size = fun (x : int) => 1; } in";
    "type count = int in\nlet bump = fun (x : count) => x + 1 in";
    "let power = fun (x : int, n : int) => x + n in";
  ]

let uses =
  [
    "twice(21)";
    "Sized<int>.size(5) + accumulate[int](cons[int](1, nil[int]))";
    "bump(41)";
    "power(2, 5)";
    "power[int](2, 5)";
    "sum_container(cons[int](1, cons[int](2, nil[int])))";
  ]

let test_extend_matches () =
  List.iter
    (fun (mode, image) ->
      let checked = Session.of_config (config mode) in
      let loaded = Session.Image.load (config mode) image in
      List.iteri
        (fun i decls ->
          let what = Printf.sprintf "%s: extension %d" (Resolution.mode_name mode) i in
          let ext s =
            match Session.extend_result s decls with
            | Ok s -> Some s
            | Error d -> Alcotest.failf "%s: %s" what (Diag.to_string d)
          in
          match (ext checked, ext loaded) with
          | Some c, Some l ->
              Alcotest.(check int)
                (what ^ ": invalidations")
                (Session.cache_stats c).Unit.s_invalidations
                (Session.cache_stats l).Unit.s_invalidations;
              List.iter
                (fun u ->
                  Alcotest.(check string)
                    (what ^ ": " ^ u)
                    (render c ("<ext>", u))
                    (render l ("<ext>", u)))
                uses
          | _ -> ())
        extensions)
    modes

(* Two sessions loaded from one image and one checked session, all over
   one unit cache: each adds the whole prelude under keys of its own
   family (so the cache holds three copies), and a program walked in
   one is re-checked, not replayed, in the others. *)
let test_family_isolation () =
  let cfg = config Resolution.Lexical in
  let cache = Unit.create_cache () in
  let stats () = Unit.stats cache in
  let a = Session.Image.load ~cache cfg Embedded.lexical in
  let n = (stats ()).Unit.s_size in
  Alcotest.(check bool) "image units joined the cache" true (n > 0);
  Alcotest.(check int) "image loads touch no counters" 0
    ((stats ()).Unit.s_hits + (stats ()).Unit.s_misses);
  let b = Session.Image.load ~cache cfg Embedded.lexical in
  Alcotest.(check int) "second image, own keys" (2 * n) (stats ()).Unit.s_size;
  let c = Session.of_config ~cache cfg in
  Alcotest.(check int) "checked prelude replays nothing" 0
    (stats ()).Unit.s_hits;
  Alcotest.(check int) "checked prelude checks every unit" n
    (stats ()).Unit.s_misses;
  Alcotest.(check int) "three prelude copies" (3 * n) (stats ()).Unit.s_size;
  let program =
    "concept Twice<t> { tw : fn(t) -> t; } in\n\
     model Twice<int> { tw = fun (x : int) => x + x; } in\n\
     let f = fun (x : int) => Twice<int>.tw(x) + 1 in\n\
     f(power(2, 3))"
  in
  let run s =
    let before = stats () in
    let out = render s ("p.fg", program) in
    let after = stats () in
    ( out,
      after.Unit.s_hits - before.Unit.s_hits,
      after.Unit.s_misses - before.Unit.s_misses )
  in
  (* [render] walks the program three times: the first walk in a
     family checks it, the other two replay *)
  let out_a, hits_a, misses_a = run a in
  Alcotest.(check bool) "first walk checks" true (misses_a > 0);
  List.iter
    (fun (name, s) ->
      let out, hits, misses = run s in
      Alcotest.(check string) (name ^ ": same output") out_a out;
      Alcotest.(check (pair int int)) (name ^ ": re-checked, not replayed")
        (hits_a, misses_a) (hits, misses))
    [ ("second image", b); ("checked", c) ];
  let _, hits, misses = run a in
  Alcotest.(check (pair int int)) "own family replays"
    (hits_a + misses_a, 0) (hits, misses)

let generate () =
  let out = Filename.temp_file "prelude_image" ".ml" in
  let code =
    Sys.command
      (Printf.sprintf "../lib/image/gen_image.exe > %s" (Filename.quote out))
  in
  let text = read_file out in
  Sys.remove out;
  Alcotest.(check int) "generator exit" 0 code;
  text

let test_generator_deterministic () =
  let first = generate () in
  Alcotest.(check bool) "generator wrote both images" true
    (String.length first > 1000);
  Alcotest.(check bool) "two runs, same bytes" true
    (String.equal first (generate ()))

let suite =
  [
    Alcotest.test_case "image session = checked session" `Quick
      test_image_matches_check;
    Alcotest.test_case "extend on image = extend on check" `Quick
      test_extend_matches;
    Alcotest.test_case "families isolate shared cache" `Quick
      test_family_isolation;
    Alcotest.test_case "generator is deterministic" `Quick
      test_generator_deterministic;
  ]
