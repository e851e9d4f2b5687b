(* The coverage instrument under parallelism: probes are the guided
   fuzzer's only view of the checker, so they must not drop hits across
   domains, and the map algebra the fuzzer accumulates with must keep
   maps sorted and positive. *)

open Fg_util

(* Registration is idempotent: both racers get the same probe, and
   hits through either land on the same counter. *)
let test_probe_registration () =
  let p1 = Coverage.probe "test.reg.same" in
  let p2 = Coverage.probe "test.reg.same" in
  let before = Coverage.snapshot () in
  Coverage.hit p1;
  Coverage.hit p2;
  Coverage.hit_key "test.reg.same";
  let d = Coverage.diff (Coverage.snapshot ()) before in
  Alcotest.(check (list (pair string int)))
    "three hits on one key"
    [ ("test.reg.same", 3) ]
    (List.filter (fun (k, _) -> k = "test.reg.same") d)

(* Four domains hammering two probes (one static, one dynamically
   keyed, registered mid-flight from every domain): exact counts. *)
let test_shard_merge_parallel () =
  let p = Coverage.probe "test.par.static" in
  let before = Coverage.snapshot () in
  let n_domains = 4 and per_domain = 100_000 in
  let worker () =
    for _ = 1 to per_domain do
      Coverage.hit p;
      Coverage.hit_key "test.par.dynamic"
    done
  in
  let domains = List.init n_domains (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  let d = Coverage.diff (Coverage.snapshot ()) before in
  Alcotest.(check int) "no lost static hits" (n_domains * per_domain)
    (List.assoc "test.par.static" d);
  Alcotest.(check int) "no lost dynamic hits" (n_domains * per_domain)
    (List.assoc "test.par.dynamic" d)

let test_merge_diff_algebra () =
  let a = [ ("a", 1); ("b", 2) ] and b = [ ("b", 3); ("c", 4) ] in
  Alcotest.(check (list (pair string int)))
    "merge is a pointwise sum"
    [ ("a", 1); ("b", 5); ("c", 4) ]
    (Coverage.merge a b);
  Alcotest.(check (list (pair string int)))
    "diff keeps only growth"
    [ ("c", 4) ]
    (Coverage.diff (Coverage.merge a b) (Coverage.merge a [ ("b", 3) ]));
  Alcotest.(check int) "distinct" 3 (Coverage.distinct (Coverage.merge a b));
  Alcotest.(check int) "total" 10 (Coverage.total (Coverage.merge a b));
  Alcotest.(check (list string)) "keys sorted" [ "a"; "b"; "c" ]
    (Coverage.keys (Coverage.merge b a))

let suite =
  [
    Alcotest.test_case "probe registration" `Quick test_probe_registration;
    Alcotest.test_case "shard merge under 4 domains" `Quick
      test_shard_merge_parallel;
    Alcotest.test_case "merge/diff algebra" `Quick test_merge_diff_algebra;
  ]
