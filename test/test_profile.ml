(* Workload profiles: the canonical codec, the fleet merge, the
   guided-backend hot rule, server auto-sizing, and the end-to-end
   record-then-replay loop (a profile collected on the dict backend
   drives guided specialization whose output the session oracle pins
   to the dictionary semantics). *)

open Fg_util
module C = Fg_core

let sample =
  {
    Profile.p_programs = 12;
    p_instantiations =
      [ ("max[int]", 9); ("min[int]", 1); ("sum[list int]", 4) ];
    p_resolutions = [ ("Eq<int>", 7); ("Ord<int>", 3) ];
    p_backends = [ ("dict", 10); ("guided", 2) ];
    p_requests = [ ("run", 11); ("stats", 1) ];
    p_unit_cache =
      {
        Profile.c_hits = 100;
        c_misses = 40;
        c_evictions = 8;
        c_invalidations = 2;
        c_size = 512;
        c_capacity = 512;
      };
  }

(* ------------------------------------------------------------------ *)
(* Canonical codec *)

let test_roundtrip () =
  match Profile.of_json (Profile.to_json sample) with
  | Error e -> Alcotest.fail ("of_json failed: " ^ e)
  | Ok p ->
      Alcotest.(check bool) "round-trips structurally" true (p = sample);
      Alcotest.(check string) "round-trips byte-identically"
        (Profile.to_string sample) (Profile.to_string p)

let test_canonical_bytes () =
  (* The same profile with its maps presented in a different order must
     render to the same bytes — CI diffs depend on it. *)
  let shuffled =
    {
      sample with
      Profile.p_instantiations =
        [ ("sum[list int]", 4); ("max[int]", 9); ("min[int]", 1) ];
      p_resolutions = [ ("Ord<int>", 3); ("Eq<int>", 7) ];
    }
  in
  Alcotest.(check string) "key order is canonical"
    (Profile.to_string sample) (Profile.to_string shuffled);
  (* Keys inside the rendered object appear sorted. *)
  let s = Profile.to_string sample in
  let pos key =
    let needle = "\"" ^ key ^ "\"" in
    let n = String.length needle and len = String.length s in
    let rec go i =
      if i + n > len then None
      else if String.sub s i n = needle then Some i
      else go (i + 1)
    in
    go 0
  in
  let le a b =
    match (pos a, pos b) with
    | Some i, Some j -> i < j
    | _ -> false
  in
  Alcotest.(check bool) "backends before instantiations" true
    (le "backends" "instantiations");
  Alcotest.(check bool) "fgc_profile version tag present" true
    (pos "fgc_profile" <> None)

let test_of_json_rejects () =
  (match Profile.of_json (Json.Str "nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-object accepted");
  match Profile.of_json (Json.Obj [ ("programs", Json.Int 1) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing fgc_profile version accepted"

let test_load_fg1003 () =
  let check_raises path =
    match Profile.load path with
    | exception Diag.Error d ->
        Alcotest.(check string) "stable code" "FG1003" d.Diag.code
    | _ -> Alcotest.fail "expected FG1003"
  in
  check_raises "/nonexistent/profile.json";
  let tmp = Filename.temp_file "fgc_profile" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let oc = open_out tmp in
      output_string oc "{ not json";
      close_out oc;
      check_raises tmp;
      (* and save/load closes the loop *)
      Profile.save tmp sample;
      Alcotest.(check bool) "save/load round-trip" true
        (Profile.load tmp = sample))

(* ------------------------------------------------------------------ *)
(* Merge *)

let test_merge () =
  let m = Profile.merge sample sample in
  Alcotest.(check int) "programs sum" 24 m.Profile.p_programs;
  Alcotest.(check (option int)) "instantiations sum" (Some 18)
    (List.assoc_opt "max[int]" m.Profile.p_instantiations);
  Alcotest.(check int) "cache hits sum" 200
    m.Profile.p_unit_cache.Profile.c_hits;
  Alcotest.(check int) "capacity merges by max" 512
    m.Profile.p_unit_cache.Profile.c_capacity;
  (* empty is the identity, on both sides *)
  Alcotest.(check bool) "left identity" true
    (Profile.merge Profile.empty sample = sample);
  Alcotest.(check bool) "right identity" true
    (Profile.merge sample Profile.empty = sample)

(* ------------------------------------------------------------------ *)
(* The hot rule *)

let test_hot_rule () =
  (* total 14 over 3 distinct: threshold = ceil(14/3) = 5 — the Zipf
     head (9) clears it, the tail (4, 1) stays cold. *)
  Alcotest.(check int) "threshold is mean-clearing" 5
    (Profile.hot_threshold sample);
  let hot = Profile.hot sample in
  Alcotest.(check bool) "head is hot" true (hot "max[int]");
  Alcotest.(check bool) "tail is cold" false (hot "sum[list int]");
  Alcotest.(check bool) "singleton is cold" false (hot "min[int]");
  Alcotest.(check bool) "unknown key is cold" false (hot "other[bool]");
  (* No instantiations profiled: nothing is hot, threshold 0. *)
  Alcotest.(check int) "empty threshold" 0
    (Profile.hot_threshold Profile.empty);
  Alcotest.(check bool) "empty: nothing hot" false
    (Profile.hot Profile.empty "max[int]");
  (* A flat (unskewed) profile at count >= 2 makes everything hot:
     threshold = max 2 (mean) = mean. *)
  let flat =
    { Profile.empty with
      Profile.p_instantiations = [ ("a[int]", 3); ("b[int]", 3) ] }
  in
  Alcotest.(check bool) "flat profile: all hot" true
    (Profile.hot flat "a[int]" && Profile.hot flat "b[int]")

(* ------------------------------------------------------------------ *)
(* Auto-sizing *)

let test_auto_size () =
  (* Evictions under pressure: grow to the next power of two covering
     size + evictions (512 + 8 -> 1024 when the default is 512). *)
  let s = Profile.auto_size sample ~default_capacity:512 ~workers:8 in
  Alcotest.(check (option int)) "capacity grows past eviction thrash"
    (Some 1024) s.Profile.sz_unit_cache_capacity;
  (* 12 profiled requests over 8 workers: one worker per 64 requests
     shrinks the pool to 1. *)
  Alcotest.(check (option int)) "idle profile shrinks workers" (Some 1)
    s.Profile.sz_workers;
  (* No evictions: capacity stays configured. *)
  let calm =
    { sample with
      Profile.p_unit_cache =
        { sample.Profile.p_unit_cache with Profile.c_evictions = 0 };
      p_requests = [ ("run", 1000) ] }
  in
  let s2 = Profile.auto_size calm ~default_capacity:512 ~workers:8 in
  Alcotest.(check (option int)) "no evictions, no resize" None
    s2.Profile.sz_unit_cache_capacity;
  (* 1000 requests want ceil(1000/64) = 16 workers but never exceed
     the configured count. *)
  Alcotest.(check (option int)) "workers never grow past configured" None
    s2.Profile.sz_workers;
  (* The empty profile changes nothing. *)
  let s3 = Profile.auto_size Profile.empty ~default_capacity:512 ~workers:4 in
  Alcotest.(check (option int)) "empty: capacity kept" None
    s3.Profile.sz_unit_cache_capacity

(* ------------------------------------------------------------------ *)
(* Record on dict, replay guided: the whole feedback loop in-process *)

let value_programs =
  List.filter_map
    (fun (e : C.Corpus.entry) ->
      match e.C.Corpus.expected with
      | C.Corpus.Value _ -> Some (e.C.Corpus.name, e.C.Corpus.source)
      | C.Corpus.Fails _ -> None)
    C.Corpus.all

let session_of backend profile =
  C.Session.of_config { C.Session.Config.default with backend; profile }

let test_guided_replay () =
  (* Phase 1: run the whole corpus on dict with collection on. *)
  Profile.reset_collected ();
  Profile.set_collecting true;
  let dict = session_of C.Backend.Dict None in
  let dict_outcomes =
    List.map
      (fun (name, src) -> (name, C.Session.run ~file:name dict src))
      value_programs
  in
  Profile.set_collecting false;
  let p =
    Profile.collected
      ~programs:(List.length value_programs)
      ~unit_cache:Profile.cache_zero ~backends:[] ~requests:[] ()
  in
  Alcotest.(check bool) "census saw instantiations" true
    (p.Profile.p_instantiations <> []);
  Alcotest.(check bool) "resolutions were recorded" true
    (p.Profile.p_resolutions <> []);
  (* Phase 2: replay guided under the recorded profile.  The session
     oracle (FG0502/FG0503) re-checks every specialized program; here
     we additionally pin the observable outcome to the dict run. *)
  let guided = session_of C.Backend.Guided (Some p) in
  let stencils = ref 0 and fallbacks = ref 0 in
  List.iter
    (fun (name, src) ->
      let out = C.Session.run ~file:name guided src in
      let d : C.Session.outcome = List.assoc name dict_outcomes in
      Alcotest.(check bool)
        (name ^ ": guided value = dict value")
        true
        (C.Interp.flat_equal out.C.Session.value d.C.Session.value);
      Alcotest.(check bool) (name ^ ": theorem holds") true
        out.C.Session.theorem_holds;
      match out.C.Session.spec with
      | None -> Alcotest.fail (name ^ ": guided outcome lacks spec")
      | Some sp ->
          stencils :=
            !stencils
            + sp.C.Session.spec_stats.Fg_systemf.Specialize.st_stencils;
          fallbacks :=
            !fallbacks
            + sp.C.Session.spec_stats.Fg_systemf.Specialize.st_fallbacks)
    value_programs;
  (* The profile is skewed enough that guided both specialized some
     head and left some tail on dictionary passing. *)
  Alcotest.(check bool) "guided stenciled the hot head" true (!stencils > 0)

let test_guided_no_profile_degenerates () =
  let bare = session_of C.Backend.Guided None in
  List.iter
    (fun (name, src) ->
      let out = C.Session.run ~file:name bare src in
      (match out.C.Session.spec with
      | None -> Alcotest.fail (name ^ ": guided outcome lacks spec")
      | Some sp ->
          Alcotest.(check int)
            (name ^ ": no stencils without a profile")
            0 sp.C.Session.spec_stats.Fg_systemf.Specialize.st_stencils);
      Alcotest.(check bool) (name ^ ": theorem holds") true
        out.C.Session.theorem_holds)
    value_programs

let suite =
  [
    Alcotest.test_case "canonical round-trip" `Quick test_roundtrip;
    Alcotest.test_case "canonical bytes" `Quick test_canonical_bytes;
    Alcotest.test_case "of_json rejects bad shapes" `Quick
      test_of_json_rejects;
    Alcotest.test_case "load: FG1003 and save round-trip" `Quick
      test_load_fg1003;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "hot rule" `Quick test_hot_rule;
    Alcotest.test_case "auto-sizing" `Quick test_auto_size;
    Alcotest.test_case "record on dict, replay guided" `Quick
      test_guided_replay;
    Alcotest.test_case "guided without a profile = dict" `Quick
      test_guided_no_profile_degenerates;
  ]
