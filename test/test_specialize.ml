(* The specializer against the dictionary-passing translation.

   Dictionary passing is the only backend: no driver, session or wire
   field runs [F.Specialize] any more.  While the module stays (the
   benchmark spine still times it), its contract stays tested here, by
   calling it directly on [Session.translate]'s output: in each mode
   the specialized program re-typechecks in System F at a type
   alpha-equal to the translation's, evaluates to the same flat value,
   and takes no more beta steps.  The suite is registered as "backend",
   the name it had while the specializer was selectable, so its cases
   keep their names: the "3 backends" are dictionary passing and the
   specializer's two modes. *)

open Fg_core
module F = Fg_systemf

let modes =
  [ ("stencil", F.Specialize.Stencil); ("hybrid", F.Specialize.Hybrid) ]

let session () = Session.of_config Session.Config.default

(* Each mode's specialization of [f] typechecks alpha-equal to [f]. *)
let check_types ~name f =
  let f_ty = F.Typecheck.typecheck f in
  List.iter
    (fun (label, mode) ->
      let sp, _ = F.Specialize.specialize ~mode f in
      Alcotest.(check bool)
        (Printf.sprintf "%s under %s: type alpha-equal" name label)
        true
        (F.Ast.alpha_equal (F.Typecheck.typecheck sp) f_ty))
    modes

(* Each mode's specialization of [f] evaluates to [value] in no more
   than the [steps] [f] itself takes. *)
let check_values ~name ~value ~steps f =
  List.iter
    (fun (label, mode) ->
      let what = Printf.sprintf "%s under %s" name label in
      let v, steps' = F.Eval.run (fst (F.Specialize.specialize ~mode f)) in
      Alcotest.(check string)
        (what ^ ": value") value
        (Interp.flat_to_string (Interp.flatten_f v));
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d steps <= translated %d" what steps' steps)
        true (steps' <= steps))
    modes

(* Every corpus program that has a value gets it from the session and
   from both specializations of the session's translation. *)
let test_corpus_differential () =
  let s = session () in
  List.iter
    (fun (e : Corpus.entry) ->
      match e.Corpus.expected with
      | Corpus.Fails _ -> ()
      | Corpus.Value expected ->
          let name = e.Corpus.name in
          let value = Interp.flat_to_string expected in
          let o = Session.run ~file:name s e.Corpus.source in
          Alcotest.(check string)
            (name ^ " under dict") value
            (Interp.flat_to_string o.Session.value);
          check_values ~name ~value ~steps:o.Session.translated_steps
            o.Session.f_exp)
    Corpus.all

let test_spec_typechecks () =
  let s = session () in
  List.iter
    (fun (e : Corpus.entry) ->
      match e.Corpus.expected with
      | Corpus.Fails _ -> ()
      | Corpus.Value _ ->
          check_types ~name:e.Corpus.name
            (Session.translate ~file:e.Corpus.name s e.Corpus.source))
    Corpus.all

(* Generated programs reach shapes the corpus does not: a seeded batch. *)
let test_fuzz_differential () =
  let cfg =
    { Fuzz.default_config with Fuzz.seed = 2026; count = 60; mutants = 0 }
  in
  let s = session () in
  for i = 0 to cfg.Fuzz.count - 1 do
    let name = Printf.sprintf "fuzz-2026-%d" i in
    let p = Fuzz.generate cfg ~index:i in
    let f = Session.translate ~file:name s p.Fuzz.p_source in
    let v, steps = F.Eval.run f in
    check_types ~name f;
    check_values ~name
      ~value:(Interp.flat_to_string (Interp.flatten_f v))
      ~steps f
  done

(* ------------------------------------------------------------------ *)
(* gcshape sharing *)

let sharing_src =
  "concept Id<t> { f : fn(t) -> t; } in\n\
   let ap = tfun t where Id<t> => fun (x : t) => Id<t>.f(x) in\n\
   model Id<int> { f = fun (x : int) => x + 1; } in\n\
   model Id<bool> { f = fun (x : bool) => x; } in\n\
   if ap[bool](true) then ap[int](1) else 0"

let test_hybrid_shares_shapes () =
  let f = Session.translate (session ()) sharing_src in
  let stats mode = snd (F.Specialize.specialize ~mode f) in
  let st = stats F.Specialize.Stencil and hy = stats F.Specialize.Hybrid in
  (* full stenciling clones per instantiation; the hybrid keeps one
     stencil per dictionary-layout shape and lets the same-shape call
     keep dictionary passing *)
  Alcotest.(check int) "stencil clones both" 2 st.F.Specialize.st_stencils;
  Alcotest.(check int) "hybrid keeps one" 1 hy.F.Specialize.st_stencils;
  Alcotest.(check bool) "hybrid shares the other" true
    (hy.F.Specialize.st_shared >= 1)

let suite =
  [
    Alcotest.test_case "corpus differential (3 backends)" `Quick
      test_corpus_differential;
    Alcotest.test_case "specialized corpus typechecks" `Quick
      test_spec_typechecks;
    Alcotest.test_case "hybrid shares same-shape stencils" `Quick
      test_hybrid_shares_shapes;
    Alcotest.test_case "fuzz differential (stencil, hybrid)" `Slow
      test_fuzz_differential;
  ]
