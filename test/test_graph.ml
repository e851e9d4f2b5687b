(* Tests for the generic graph library written in FG (lib/fg/graph_lib):
   each algorithm at the adjacency-list representation, the SAME
   algorithms at the structurally different edge-list representation,
   and a property test comparing FG `reachable` against an OCaml
   reference search on random graphs. *)

open Fg_core

let session () = Session.of_config Session.Config.default

let adj_ty = "list (int * list int)"
let edge_ty = "list int * list (int * int)"

let check body expected =
  match Session.run_result ~file:"graph" (session ()) (Graph_lib.wrap body) with
  | Ok out ->
      Alcotest.(check string) body expected (Interp.flat_to_string out.value)
  | Error d -> Alcotest.failf "%s: %s" body (Fg_util.Diag.to_string d)

(* the running example: 1 -> {2,3}, 2 -> {4}, 3 -> {4}, 4 -> {} *)
let diamond = Graph_lib.adj [ (1, [ 2; 3 ]); (2, [ 4 ]); (3, [ 4 ]); (4, []) ]
let cycle = Graph_lib.adj [ (1, [ 2 ]); (2, [ 3 ]); (3, [ 1 ]) ]

let test_degree () =
  check (Printf.sprintf "degree[%s](%s, 1)" adj_ty diamond) "2";
  check (Printf.sprintf "degree[%s](%s, 4)" adj_ty diamond) "0"

let test_counts () =
  check (Printf.sprintf "num_vertices[%s](%s)" adj_ty diamond) "4";
  check (Printf.sprintf "num_edges[%s](%s)" adj_ty diamond) "4";
  check (Printf.sprintf "num_edges[%s](%s)" adj_ty cycle) "3"

let test_has_edge () =
  check (Printf.sprintf "has_edge[%s](%s, 1, 2)" adj_ty diamond) "true";
  check (Printf.sprintf "has_edge[%s](%s, 2, 1)" adj_ty diamond) "false";
  check (Printf.sprintf "has_edge[%s](%s, 1, 4)" adj_ty diamond) "false"

let test_reachable () =
  check (Printf.sprintf "reachable[%s](%s, 1, 4)" adj_ty diamond) "true";
  check (Printf.sprintf "reachable[%s](%s, 4, 1)" adj_ty diamond) "false";
  check (Printf.sprintf "reachable[%s](%s, 1, 1)" adj_ty diamond) "true";
  (* reachability through a cycle *)
  check (Printf.sprintf "reachable[%s](%s, 1, 3)" adj_ty cycle) "true";
  check (Printf.sprintf "reachable[%s](%s, 3, 2)" adj_ty cycle) "true"

let test_reachable_set () =
  check (Printf.sprintf "reachable_set[%s](%s, 1)" adj_ty diamond)
    "[1, 2, 3, 4]";
  check (Printf.sprintf "reachable_set[%s](%s, 4)" adj_ty diamond) "[4]";
  check (Printf.sprintf "reachable_set[%s](%s, 2)" adj_ty cycle) "[2, 3, 1]"

let test_is_dag () =
  check (Printf.sprintf "is_dag[%s](%s)" adj_ty diamond) "true";
  check (Printf.sprintf "is_dag[%s](%s)" adj_ty cycle) "false";
  (* self-loop *)
  check
    (Printf.sprintf "is_dag[%s](%s)" adj_ty (Graph_lib.adj [ (1, [ 1 ]) ]))
    "false";
  check (Printf.sprintf "is_dag[%s](%s)" adj_ty (Graph_lib.adj [])) "true"

let test_edge_list_representation () =
  (* the same generic algorithms at a different model of Graph *)
  let g = Graph_lib.edges [ 1; 2; 3; 4 ] [ (1, 2); (2, 3); (1, 4) ] in
  check (Printf.sprintf "num_vertices[%s](%s)" edge_ty g) "4";
  check (Printf.sprintf "num_edges[%s](%s)" edge_ty g) "3";
  check (Printf.sprintf "degree[%s](%s, 1)" edge_ty g) "2";
  check (Printf.sprintf "reachable[%s](%s, 1, 3)" edge_ty g) "true";
  check (Printf.sprintf "reachable[%s](%s, 4, 3)" edge_ty g) "false";
  check (Printf.sprintf "is_dag[%s](%s)" edge_ty g) "true"

let test_implicit_instantiation_on_graphs () =
  (* associated types are not invertible from argument types, but the
     graph parameter itself is: `degree(g, v)` infers g *)
  check (Printf.sprintf "degree(%s, 3)" diamond) "1";
  check (Printf.sprintf "num_edges(%s)" diamond) "4"

(* Reference implementation for the property test. *)
let ocaml_reachable (g : (int * int list) list) (src : int) (tgt : int) : bool
    =
  let out v = try List.assoc v g with Not_found -> [] in
  let rec go work visited =
    match work with
    | [] -> false
    | v :: rest ->
        if v = tgt then true
        else if List.mem v visited then go rest visited
        else go (rest @ out v) (v :: visited)
  in
  go [ src ] []

let prop_reachable_matches_reference =
  QCheck.Test.make ~name:"FG reachable matches OCaml reference" ~count:60
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 1 5)
           (pair (int_bound 4) (list_of_size (QCheck.Gen.int_bound 3) (int_bound 4))))
        (pair (int_bound 4) (int_bound 4)))
    (fun (raw, (src, tgt)) ->
      (* normalize: unique vertex ids 0..4, dedup adjacency entries *)
      let g =
        List.sort_uniq compare (List.map (fun (v, ss) -> (v, ss)) raw)
        |> List.fold_left
             (fun acc (v, ss) ->
               if List.mem_assoc v acc then acc else (v, ss) :: acc)
             []
      in
      (* every mentioned vertex must exist as a key for the FG model *)
      let mentioned =
        List.concat_map (fun (v, ss) -> v :: ss) g @ [ src; tgt ]
      in
      let g =
        List.fold_left
          (fun acc v -> if List.mem_assoc v acc then acc else (v, []) :: acc)
          g (List.sort_uniq compare mentioned)
      in
      let body =
        Printf.sprintf "reachable[%s](%s, %d, %d)" adj_ty (Graph_lib.adj g)
          src tgt
      in
      let out = Session.run ~file:"prop" (session ()) (Graph_lib.wrap body) in
      Interp.flat_equal out.value (Interp.FlBool (ocaml_reachable g src tgt)))

let suite =
  [
    Alcotest.test_case "degree" `Quick test_degree;
    Alcotest.test_case "vertex/edge counts" `Quick test_counts;
    Alcotest.test_case "has_edge" `Quick test_has_edge;
    Alcotest.test_case "reachable" `Quick test_reachable;
    Alcotest.test_case "reachable_set" `Quick test_reachable_set;
    Alcotest.test_case "is_dag" `Quick test_is_dag;
    Alcotest.test_case "edge-list representation" `Quick
      test_edge_list_representation;
    Alcotest.test_case "implicit instantiation" `Quick
      test_implicit_instantiation_on_graphs;
    QCheck_alcotest.to_alcotest prop_reachable_matches_reference;
  ]
