(* The persistent unit store: blob framing, cold/warm byte-identity
   through a real session, resilience to garbage in the store,
   concurrent writers, an open that reads nothing and a hit that writes
   nothing, and a tier that throws read as a miss. *)

open Fg_util
module C = Fg_core

let fresh_root =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "fgdisk-%d-%d" (Unix.getpid ()) !n)
    in
    (* best-effort clean slate; open_store recreates it *)
    (match Sys.readdir d with
    | entries ->
        Array.iter
          (fun shard ->
            let sd = Filename.concat d shard in
            (match Sys.readdir sd with
            | files ->
                Array.iter
                  (fun f -> try Sys.remove (Filename.concat sd f)
                            with Sys_error _ -> ())
                  files
            | exception Sys_error _ -> ());
            try Unix.rmdir sd with Unix.Unix_error _ -> ())
          entries
    | exception Sys_error _ -> ());
    d

(* ---------------------------------------------------------------- *)
(* Blob framing                                                      *)

let test_blob_roundtrip () =
  let body = "payload with \x00 bytes and\nnewlines" in
  let blob = C.Diskcache.encode_blob body in
  (match C.Diskcache.decode_blob blob with
  | Some b -> Alcotest.(check string) "roundtrip" body b
  | None -> Alcotest.fail "freshly encoded blob must decode");
  (* a flipped body byte fails the digest *)
  let corrupt = Bytes.of_string blob in
  let last = Bytes.length corrupt - 1 in
  Bytes.set corrupt last
    (if Bytes.get corrupt last = 'x' then 'y' else 'x');
  Alcotest.(check bool) "corrupt body rejected" true
    (C.Diskcache.decode_blob (Bytes.to_string corrupt) = None);
  (* a foreign stamp (other build / format version) fails outright *)
  Alcotest.(check bool) "foreign stamp rejected" true
    (C.Diskcache.decode_blob
       ("fgcache 999 5.1.0 deadbeef\n"
       ^ Digest.to_hex (Digest.string body)
       ^ "\n" ^ body)
    = None);
  Alcotest.(check bool) "truncation rejected" true
    (C.Diskcache.decode_blob (String.sub blob 0 (String.length blob / 2))
    = None)

(* ---------------------------------------------------------------- *)
(* Build identity                                                    *)

(* A minimal little-endian ELF64 image: the file header, one PT_NOTE
   program header, and a note segment holding an ABI-tag-style note
   followed by a 4-byte GNU build-id. *)
let synthetic_elf () =
  let b = Buffer.create 160 in
  Buffer.add_string b "\x7fELF\002\001\001";
  Buffer.add_string b (String.make 9 '\000');
  Buffer.add_uint16_le b 2 (* e_type *);
  Buffer.add_uint16_le b 62 (* e_machine *);
  Buffer.add_int32_le b 1l (* e_version *);
  Buffer.add_int64_le b 0L (* e_entry *);
  Buffer.add_int64_le b 64L (* e_phoff *);
  Buffer.add_int64_le b 0L (* e_shoff *);
  Buffer.add_int32_le b 0l (* e_flags *);
  List.iter (Buffer.add_uint16_le b) [ 64; 56; 1; 0; 0; 0 ];
  let note ty desc =
    let n = Buffer.create 24 in
    Buffer.add_int32_le n 4l;
    Buffer.add_int32_le n (Int32.of_int (String.length desc));
    Buffer.add_int32_le n (Int32.of_int ty);
    Buffer.add_string n "GNU\000";
    Buffer.add_string n desc;
    Buffer.contents n
  in
  let notes = note 1 "\000\000\000\000" ^ note 3 "\xde\xad\xbe\xef" in
  let seg_off = 64 + 56 in
  Buffer.add_int32_le b 4l (* PT_NOTE *);
  Buffer.add_int32_le b 4l (* p_flags *);
  Buffer.add_int64_le b (Int64.of_int seg_off);
  Buffer.add_int64_le b 0L;
  Buffer.add_int64_le b 0L;
  Buffer.add_int64_le b (Int64.of_int (String.length notes));
  Buffer.add_int64_le b (Int64.of_int (String.length notes));
  Buffer.add_int64_le b 4L (* p_align *);
  Buffer.add_string b notes;
  Buffer.contents b

let write_temp contents =
  let path = Filename.temp_file "fgelf" ".bin" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

let test_build_id_note () =
  let elf = synthetic_elf () in
  let id_of contents =
    let path = write_temp contents in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () -> C.Diskcache.elf_build_id path)
  in
  Alcotest.(check (option string)) "note found past another note"
    (Some "deadbeef") (id_of elf);
  Alcotest.(check (option string)) "truncated note segment" None
    (id_of (String.sub elf 0 (String.length elf - 2)));
  Alcotest.(check (option string)) "truncated header" None
    (id_of (String.sub elf 0 40));
  Alcotest.(check (option string)) "not ELF" None
    (id_of "#!/bin/sh\necho not a binary\n");
  Alcotest.(check (option string)) "missing file" None
    (C.Diskcache.elf_build_id "/nonexistent/fgc.exe");
  (* the running binary: whatever identity it has is stable *)
  Alcotest.(check (option string)) "stable for this executable"
    (C.Diskcache.elf_build_id Sys.executable_name)
    (C.Diskcache.elf_build_id Sys.executable_name)

(* The disk counters [f] bumped, read from Telemetry. *)
let disk_counts f =
  let before = Telemetry.snapshot () in
  f ();
  let d = Telemetry.diff (Telemetry.snapshot ()) before in
  Telemetry.(d.disk_hits, d.disk_misses, d.corrupt_entries)

let test_get_put () =
  let d = C.Diskcache.open_store (fresh_root ()) in
  let key = Digest.string "some unit" in
  let counts =
    disk_counts (fun () ->
        Alcotest.(check bool) "empty store misses" true
          (C.Diskcache.get d key = None);
        C.Diskcache.put d key "unit body";
        Alcotest.(check (option string)) "stored body comes back"
          (Some "unit body") (C.Diskcache.get d key))
  in
  Alcotest.(check (triple int int int)) "one hit, one miss" (1, 1, 0) counts;
  (* scribbling over the entry reads as a (counted) corrupt miss and
     removes the file *)
  let path = C.Diskcache.entry_path d key in
  let oc = open_out_bin path in
  output_string oc "not a blob";
  close_out oc;
  let counts =
    disk_counts (fun () ->
        Alcotest.(check bool) "corrupt entry is a miss" true
          (C.Diskcache.get d key = None))
  in
  Alcotest.(check (triple int int int)) "corrupt counted as a miss"
    (0, 1, 1) counts;
  Alcotest.(check bool) "corrupt entry unlinked" false
    (Sys.file_exists path)

(* Opening a store costs nothing per entry: no scan of the tree. *)
let test_open_reads_nothing () =
  let root = fresh_root () in
  let d = C.Diskcache.open_store root in
  for i = 1 to 2_000 do
    C.Diskcache.put d (Digest.string (string_of_int i)) "unit body"
  done;
  (* [Gc.allocated_bytes] leaves out what still sits in the minor heap,
     so empty it before each reading. *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  ignore (C.Diskcache.open_store root);
  Gc.minor ();
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "open_store allocated %.0f bytes, under 64 KiB" allocated)
    true
    (allocated < 65536.)

(* A hit reads its entry and leaves it as it was, mtime included. *)
let test_hit_writes_nothing () =
  let d = C.Diskcache.open_store (fresh_root ()) in
  let key = Digest.string "read me" in
  C.Diskcache.put d key "unit body";
  let path = C.Diskcache.entry_path d key in
  Unix.utimes path 1000. 1000.;
  Alcotest.(check (option string)) "hit" (Some "unit body")
    (C.Diskcache.get d key);
  Alcotest.(check (float 0.)) "mtime untouched" 1000.
    (Unix.stat path).Unix.st_mtime

(* ---------------------------------------------------------------- *)
(* Through a session                                                 *)

let program =
  "accumulate[int](cons[int](1, cons[int](2, nil[int]))) + power[int](3, 3)"

(* A standard-prelude session; with [cache_dir], its unit cache has the
   disk store under that root behind it, as [fgc run --cache-dir]
   builds it. *)
let session ?cache_dir () =
  let cache =
    Option.map
      (fun dir ->
        let cache = C.Unit.create_cache () in
        C.Unit.set_stores cache
          [ C.Unit.disk_store (C.Diskcache.open_store dir) ];
        cache)
      cache_dir
  in
  C.Session.of_config ?cache
    (C.Session.Config.with_standard_prelude C.Session.Config.default)

let rendered s =
  let report = C.Session.run_full ~file:"<t>" s program in
  Json.to_string (C.Jsonview.json_of_run_report ~file:"<t>" report)

let test_cold_warm_byte_identity () =
  let root = fresh_root () in
  let baseline = rendered (session ()) in
  let cold = rendered (session ~cache_dir:root ()) in
  Alcotest.(check string) "cold run matches uncached" baseline cold;
  let warm_s = session ~cache_dir:root () in
  let warm = rendered warm_s in
  Alcotest.(check string) "warm run matches uncached" baseline warm;
  (* the warm process re-checked nothing: every unit (prelude and
     program alike) replayed from disk *)
  let st = C.Session.cache_stats warm_s in
  Alcotest.(check int) "zero unit re-checks when warm" 0
    st.C.Unit.s_misses;
  Alcotest.(check bool) "warm units are hits" true (st.C.Unit.s_hits > 0)

let test_garbage_in_store () =
  let root = fresh_root () in
  let baseline = rendered (session ()) in
  ignore (rendered (session ~cache_dir:root ()));
  (* scribble over every entry the cold run wrote *)
  let clobbered = ref 0 in
  Array.iter
    (fun shard ->
      let sd = Filename.concat root shard in
      if try Sys.is_directory sd with Sys_error _ -> false then
        Array.iter
          (fun f ->
            let oc = open_out_bin (Filename.concat sd f) in
            output_string oc "garbage garbage garbage";
            close_out oc;
            incr clobbered)
          (Sys.readdir sd))
    (Sys.readdir root);
  Alcotest.(check bool) "store had entries to clobber" true (!clobbered > 0);
  let before = Telemetry.snapshot () in
  let s = session ~cache_dir:root () in
  Alcotest.(check string) "compilation survives a garbage store" baseline
    (rendered s);
  let d = Telemetry.diff (Telemetry.snapshot ()) before in
  Alcotest.(check bool) "corrupt entries counted" true
    (d.Telemetry.corrupt_entries > 0)

(* ---------------------------------------------------------------- *)
(* Concurrency                                                       *)

let test_concurrent_writers () =
  let root = fresh_root () in
  let key = Digest.string "contended" in
  let body = String.concat "" (List.init 64 (fun i -> string_of_int i)) in
  let writer () =
    let d = C.Diskcache.open_store root in
    for _ = 1 to 50 do
      C.Diskcache.put d key body;
      (* put skips existing entries; delete occasionally so renames
         genuinely race *)
      (try Sys.remove (C.Diskcache.entry_path d key)
       with Sys_error _ -> ())
    done;
    C.Diskcache.put d key body
  in
  List.iter Domain.join
    (List.init 4 (fun _ -> Domain.spawn writer));
  let d = C.Diskcache.open_store root in
  Alcotest.(check (option string)) "entry whole after racing writers"
    (Some body) (C.Diskcache.get d key)

(* ---------------------------------------------------------------- *)
(* A failing tier                                                    *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_throwing_store () =
  (* [Unit] must treat a store that raises as a miss on lookup and drop
     the write-through on insert: every corpus program renders exactly
     as it does with no store attached, and nothing escapes. *)
  let gets = ref 0 and puts = ref 0 in
  let throwing =
    {
      C.Unit.st_name = "throwing";
      st_get = (fun _ -> incr gets; failwith "st_get");
      st_put = (fun _ _ -> incr puts; failwith "st_put");
    }
  in
  let cache = C.Unit.create_cache () in
  C.Unit.set_stores cache [ throwing ];
  let config =
    C.Session.Config.with_standard_prelude C.Session.Config.default
  in
  let plain = C.Session.of_config config in
  let stored = C.Session.of_config ~cache config in
  let render s path =
    let report = C.Session.run_full ~file:path s (read_file path) in
    Json.to_string (C.Jsonview.json_of_run_report ~file:path report)
  in
  let files =
    Sys.readdir "../programs" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".fg")
    |> List.sort String.compare
    |> List.map (Filename.concat "../programs")
  in
  Alcotest.(check bool) "corpus non-empty" true (files <> []);
  List.iter
    (fun path ->
      Alcotest.(check string) path (render plain path) (render stored path))
    files;
  Alcotest.(check bool) "the store was consulted and written" true
    (!gets > 0 && !puts > 0)

let suite =
  [
    Alcotest.test_case "blob framing round-trips and rejects" `Quick
      test_blob_roundtrip;
    Alcotest.test_case "build identity from the ELF note" `Quick
      test_build_id_note;
    Alcotest.test_case "get/put and corrupt-entry handling" `Quick
      test_get_put;
    Alcotest.test_case "cold and warm runs byte-identical" `Quick
      test_cold_warm_byte_identity;
    Alcotest.test_case "garbage in the store never breaks compilation"
      `Quick test_garbage_in_store;
    Alcotest.test_case "concurrent writers, one whole entry" `Quick
      test_concurrent_writers;
    Alcotest.test_case "open reads nothing" `Quick test_open_reads_nothing;
    Alcotest.test_case "a hit writes nothing" `Quick test_hit_writes_nothing;
    Alcotest.test_case "a throwing store is a miss" `Quick
      test_throwing_store;
  ]
