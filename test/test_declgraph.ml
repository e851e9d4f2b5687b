(* The dependency analysis that keys compilation units (Declgraph).  A
   session analyses its prelude once and extends that state with each
   program's declarations, so extending at any split point must give
   the same edges as analysing the whole spine at once; and one
   hand-written spine per rule pins the edges the rule adds. *)

open Fg_core

let infos_of_ast ast =
  Array.of_list (List.map Declgraph.info_of_decl (fst (Unit.split_spine ast)))

(* A declaration stack written with a trailing [in], as the prelude
   and the spines below are. *)
let infos_of_stack ?(file = "<spine>") src =
  infos_of_ast (Parser.exp_of_string ~file (src ^ "\n0"))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let program_infos () =
  Sys.readdir "../programs" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".fg")
  |> List.sort String.compare
  |> List.map (fun f ->
         let path = Filename.concat "../programs" f in
         (f, infos_of_ast (Parser.exp_of_string ~file:path (read_file path))))

let whole ~global infos =
  snd (Declgraph.extend (Declgraph.empty ~global) infos)

let pp_edges deps =
  String.concat "; "
    (Array.to_list
       (Array.mapi
          (fun k d ->
            Printf.sprintf "%d:[%s]" k
              (String.concat "," (List.map string_of_int d)))
          deps))

(* Split the spine at every point s: analyse [0, s) one unit at a
   time, then extend the state at s with the rest in one call.  Every
   split must reproduce the whole-spine edges; the first one that does
   not is reported. *)
let check_splits ~global name infos =
  let n = Array.length infos in
  let expected = whole ~global infos in
  let state = ref (Declgraph.empty ~global) in
  let prefix = Array.make n [] in
  for s = 0 to n do
    let _, rest = Declgraph.extend !state (Array.sub infos s (n - s)) in
    let got = Array.append (Array.sub prefix 0 s) rest in
    if got <> expected then
      Alcotest.failf "%s (%s): split at %d gives %s, whole spine %s" name
        (if global then "global" else "lexical")
        s (pp_edges got) (pp_edges expected);
    if s < n then begin
      let g, d = Declgraph.extend !state [| infos.(s) |] in
      prefix.(s) <- d.(0);
      state := g
    end
  done

let both_modes f = List.iter (fun global -> f ~global) [ false; true ]

let test_split_equivalence () =
  let prelude = infos_of_stack ~file:"<prelude>" Prelude.full in
  let programs = program_infos () in
  Alcotest.(check bool) "corpus non-empty" true (programs <> []);
  both_modes (fun ~global ->
      List.iter
        (fun (name, infos) ->
          check_splits ~global ("prelude + " ^ name)
            (Array.append prelude infos);
          check_splits ~global name infos)
        programs;
      for seed = 0 to 299 do
        check_splits ~global
          (Printf.sprintf "Gen seed %d" seed)
          (infos_of_ast (Gen.program_of_seed seed))
      done)

(* ------------------------------------------------------------------ *)
(* Pinned edges, one spine per rule                                    *)

let check_edges ~global name src expected =
  let infos = infos_of_stack src in
  check_splits ~global name infos;
  Alcotest.(check (array (list int)))
    (Printf.sprintf "%s (%s)" name (if global then "global" else "lexical"))
    expected (whole ~global infos)

(* A reference goes to the latest declaration of the name; the
   redefinition itself observes the one it shadows. *)
let test_latest_provider () =
  both_modes (fun ~global ->
      check_edges ~global "latest provider"
        {|let x = 1 in
          let x = 2 in
          let y = x in|}
        [| []; [ 0 ]; [ 1 ] |])

(* A name that occurs only as a binder is still an edge: shadowing is
   observable (FG0205). *)
let test_binder_name () =
  both_modes (fun ~global ->
      check_edges ~global "binder name"
        {|let n = 5 in
          let f = tfun n => fun (k : int) => k in
          let g = tfun m => fun (k : int) => k in|}
        [| []; [ 0 ]; [] |])

(* [g] never names C, but it calls [f], whose constraint does: model
   resolution under [g] can consult every earlier model of C. *)
let test_models_reached_transitively () =
  both_modes (fun ~global ->
      check_edges ~global "models reached transitively"
        {|concept C<t> { m : fn(t) -> t; } in
          let f = tfun t where C<t> => fun (x : t) => C<t>.m(x) in
          model C<int> { m = fun (x : int) => x; } in
          model C<bool> { m = fun (x : bool) => x; } in
          let g = f[int](1) in
          let h = 1 in|}
        [| []; [ 0 ]; [ 0 ]; [ 0; 2 ]; [ 0; 1; 2; 3 ]; [] |])

(* [using named] contributes a model of C only through the named-model
   map of the prefix that declared [named]; a later unit mentioning C
   then depends on it, also when the split falls between the two. *)
let test_using_named_model () =
  both_modes (fun ~global ->
      check_edges ~global "using a named model"
        {|concept C<t> { m : fn(t) -> t; } in
          model named = C<int> { m = fun (x : int) => x; } in
          let k = 1 in
          using named in
          let y = C<int>.m(2) in|}
        [| []; [ 0 ]; []; [ 0; 1 ]; [ 0; 1; 3 ] |])

(* The Global ablation's overlap check couples every model declaration
   to every earlier one, whatever its concept. *)
let test_global_couples_models () =
  let src =
    {|concept C<t> { m : fn(t) -> t; } in
      concept D<t> { n : fn(t) -> t; } in
      model C<int> { m = fun (x : int) => x; } in
      model D<int> { n = fun (x : int) => x; } in
      let z = 1 in|}
  in
  check_edges ~global:false "all-models coupling" src
    [| []; []; [ 0 ]; [ 1 ]; [] |];
  check_edges ~global:true "all-models coupling" src
    [| []; []; [ 0 ]; [ 0; 1; 2 ]; [] |]

let suite =
  [
    Alcotest.test_case "split points = whole spine" `Quick
      test_split_equivalence;
    Alcotest.test_case "latest provider of a name" `Quick test_latest_provider;
    Alcotest.test_case "binder name" `Quick test_binder_name;
    Alcotest.test_case "models reached transitively" `Quick
      test_models_reached_transitively;
    Alcotest.test_case "using a named model" `Quick test_using_named_model;
    Alcotest.test_case "Global couples all models" `Quick
      test_global_couples_models;
  ]
