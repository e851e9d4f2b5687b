(* Print one synthetic program of a Genprog family, so shell scripts
   can run real fgc processes on it:
     dune exec tools/genprog.exe -- refinement_diamond 16 > d16.fg *)

open Fg_core

let families =
  [
    ("refinement_chain", Genprog.refinement_chain);
    ("refinement_diamond", Genprog.refinement_diamond);
    ("many_models", Genprog.many_models);
    ("wide_where", Genprog.wide_where);
    ("same_type_chain", Genprog.same_type_chain);
    ("assoc_chain", Genprog.assoc_chain);
    ("let_chain", Genprog.let_chain);
    ("shared_prefix", fun n -> Genprog.shared_prefix ~decls:n ());
    ("param_depth", Genprog.param_depth);
    ("instantiation_fanout", fun n -> Genprog.instantiation_fanout n);
    ("accumulate_workload", Genprog.accumulate_workload);
  ]

let () =
  match Array.to_list Sys.argv with
  | [ _; family; n ] -> (
      match (List.assoc_opt family families, int_of_string_opt n) with
      | Some gen, Some n when n >= 1 -> print_string (gen n)
      | _ ->
          Printf.eprintf "genprog: unknown family %s or bad size %s\n" family n;
          exit 2)
  | _ ->
      Printf.eprintf "usage: genprog FAMILY N\nfamilies: %s\n"
        (String.concat ", " (List.map fst families));
      exit 2
