(* Wire-protocol unit tests: the framing decoder against adversarial
   input (byte-at-a-time delivery, oversized prefixes, garbage), and
   the request/response JSON codecs including version mismatch. *)

open Fg_server

let drain dec =
  let rec go acc =
    match Protocol.next_frame dec with
    | `Frame p -> go (p :: acc)
    | `Await -> `Frames (List.rev acc)
    | `Error e -> `Error (List.rev acc, e)
  in
  go []

let test_byte_at_a_time () =
  let payload = "{\"v\":1,\"id\":7,\"kind\":\"stats\"}" in
  let wire = Bytes.to_string (Protocol.frame_of_string payload) in
  let dec = Protocol.decoder () in
  String.iteri
    (fun i c ->
      Protocol.feed_string dec (String.make 1 c);
      if i < String.length wire - 1 then
        match Protocol.next_frame dec with
        | `Await -> ()
        | `Frame _ -> Alcotest.fail "frame completed early"
        | `Error e -> Alcotest.failf "decoder error mid-frame: %s" e)
    wire;
  match drain dec with
  | `Frames [ p ] -> Alcotest.(check string) "payload" payload p
  | `Frames ps -> Alcotest.failf "expected 1 frame, got %d" (List.length ps)
  | `Error (_, e) -> Alcotest.failf "decoder error: %s" e

let test_two_frames_one_chunk () =
  let a = "first" and b = "second frame" in
  let wire =
    Bytes.to_string (Protocol.frame_of_string a)
    ^ Bytes.to_string (Protocol.frame_of_string b)
  in
  let dec = Protocol.decoder () in
  Protocol.feed_string dec wire;
  match drain dec with
  | `Frames [ pa; pb ] ->
      Alcotest.(check string) "first" a pa;
      Alcotest.(check string) "second" b pb
  | `Frames ps -> Alcotest.failf "expected 2 frames, got %d" (List.length ps)
  | `Error (_, e) -> Alcotest.failf "decoder error: %s" e

let test_oversized_prefix () =
  (* A huge length prefix must be rejected from the 4 prefix bytes
     alone — before any body arrives — and the error must be sticky. *)
  let dec = Protocol.decoder ~max_frame:1024 () in
  Protocol.feed_string dec "\xFF\xFF\xFF\xFF";
  (match Protocol.next_frame dec with
  | `Error _ -> ()
  | `Await -> Alcotest.fail "oversized prefix not rejected"
  | `Frame _ -> Alcotest.fail "oversized prefix produced a frame");
  (* sticky: even a subsequent well-formed frame is refused *)
  Protocol.feed_string dec (Bytes.to_string (Protocol.frame_of_string "ok"));
  match Protocol.next_frame dec with
  | `Error _ -> ()
  | _ -> Alcotest.fail "decoder error was not sticky"

let test_oversized_exact_boundary () =
  let dec = Protocol.decoder ~max_frame:8 () in
  (* 8 bytes: allowed *)
  Protocol.feed_string dec (Bytes.to_string (Protocol.frame_of_string "12345678"));
  (match Protocol.next_frame dec with
  | `Frame p -> Alcotest.(check string) "boundary frame" "12345678" p
  | _ -> Alcotest.fail "max_frame-sized frame should decode");
  (* 9 bytes: rejected *)
  Protocol.feed_string dec (Bytes.to_string (Protocol.frame_of_string "123456789"));
  match Protocol.next_frame dec with
  | `Error _ -> ()
  | _ -> Alcotest.fail "max_frame+1 frame should be rejected"

let test_garbage_bytes () =
  (* Garbage decodes as "some frame" or an oversized reject depending
     on what the first 4 bytes spell — either way the decoder must not
     crash, and whatever frames emerge are just strings for the JSON
     layer to refuse. *)
  let dec = Protocol.decoder ~max_frame:1024 () in
  Protocol.feed_string dec "\x00\x00\x00\x03abc";
  (match drain dec with
  | `Frames [ "abc" ] -> ()
  | _ -> Alcotest.fail "tiny binary frame should decode");
  let dec2 = Protocol.decoder ~max_frame:1024 () in
  Protocol.feed_string dec2 "GARBAGE NOT A FRAME AT ALL";
  (* 'G','A','R','B' = 0x47415242 bytes → way past max_frame *)
  match Protocol.next_frame dec2 with
  | `Error _ -> ()
  | `Await -> Alcotest.fail "ASCII garbage length should exceed max_frame"
  | `Frame _ -> Alcotest.fail "garbage produced a frame"

let test_empty_frame () =
  let dec = Protocol.decoder () in
  Protocol.feed_string dec "\x00\x00\x00\x00";
  match drain dec with
  | `Frames [ "" ] -> ()
  | _ -> Alcotest.fail "zero-length frame should yield the empty payload"

let roundtrip_request req =
  match Protocol.request_of_json (Protocol.request_to_json req) with
  | Ok r -> r
  | Error _ -> Alcotest.fail "request did not round-trip"

let test_request_roundtrip () =
  let req =
    Protocol.request ~file:"x.fg" ~source:"let a = 1;" ~prelude:false
      ~global_models:true ~timeout_ms:250 ~id:42 Protocol.Run
  in
  let r = roundtrip_request req in
  Alcotest.(check int) "id" 42 r.Protocol.id;
  Alcotest.(check string) "file" "x.fg" r.Protocol.file;
  Alcotest.(check string) "source" "let a = 1;" r.Protocol.source;
  Alcotest.(check bool) "prelude" false r.Protocol.prelude;
  Alcotest.(check bool) "global_models" true r.Protocol.global_models;
  Alcotest.(check (option int)) "timeout" (Some 250) r.Protocol.timeout_ms;
  List.iter
    (fun k ->
      let r = roundtrip_request (Protocol.request ~source:"x" ~id:1 k) in
      Alcotest.(check string) "kind survives" (Protocol.kind_name k)
        (Protocol.kind_name r.Protocol.kind))
    Protocol.all_kinds

let parse_request s =
  match Fg_util.Json.of_string s with
  | Ok j -> Protocol.request_of_json j
  | Error e -> Alcotest.failf "test payload is invalid JSON: %s" e

(* The daemon speaks exactly one version: any other, on either side of
   it, and a missing one are refused before any shape validation. *)
let test_request_version_mismatch () =
  Alcotest.(check int) "wire version is 6" 6 Protocol.version;
  List.iter
    (fun v ->
      match
        parse_request
          (Printf.sprintf "{\"v\":%d,\"id\":1,\"kind\":\"stats\"}" v)
      with
      | Error (Protocol.Bad_version (Some v')) when v' = v -> ()
      | _ -> Alcotest.failf "version %d must be Bad_version" v)
    [ 0; 1; 5; 7; 999 ];
  (match parse_request "{\"id\":1,\"kind\":\"stats\"}" with
  | Error (Protocol.Bad_version None) -> ()
  | _ -> Alcotest.fail "missing version must be Bad_version");
  (* the version check comes first, before any shape validation *)
  match parse_request "{\"v\":999}" with
  | Error (Protocol.Bad_version (Some 999)) -> ()
  | _ -> Alcotest.fail "version precedes shape errors"

(* "backend" is optional: a frame without it decodes and routes through
   a handler to the dictionary-passing payload. *)
let test_no_backend_routes_dict () =
  let frame = "{\"v\":6,\"id\":7,\"kind\":\"run\",\"source\":\"1 + 1\"}" in
  match parse_request frame with
  | Error _ -> Alcotest.fail "frame without backend does not decode"
  | Ok req ->
      Alcotest.(check int) "id" 7 req.Protocol.id;
      let handler = Handler.create () in
      let status, payload = Handler.handle_safe handler req in
      Alcotest.(check string) "status" "ok" (Protocol.status_name status);
      (match Fg_util.Json.of_string payload with
      | Ok j ->
          Alcotest.(check (option int)) "value" (Some 2)
            (match Fg_util.Json.mem "value" j with
            | Some (Fg_util.Json.Int n) -> Some n
            | _ -> None);
          Alcotest.(check (option string)) "no backend field" None
            (Fg_util.Json.str_field "backend" j)
      | Error e -> Alcotest.failf "run payload is not JSON: %s" e)

(* Dictionary passing is the only backend: the v2 field may name it or
   be absent, and any other value is a Bad_request (FG0803 on the
   wire), the specializers' old names included. *)
let test_request_backend_field () =
  let frame backend =
    Printf.sprintf
      "{\"v\":6,\"id\":1,\"kind\":\"run\",\"source\":\"1\"%s}" backend
  in
  let bare = parse_request (frame "") in
  (match (bare, parse_request (frame ",\"backend\":\"dict\"")) with
  | Ok a, Ok b -> Alcotest.(check bool) "dict decodes as absent" true (a = b)
  | _ -> Alcotest.fail "a dict backend field must decode");
  let j =
    Protocol.request_to_json (Protocol.request ~source:"1" ~id:4 Protocol.Run)
  in
  Alcotest.(check (option string)) "never on the wire" None
    (Fg_util.Json.str_field "backend" j);
  List.iter
    (fun name ->
      match
        parse_request (frame (Printf.sprintf ",\"backend\":\"%s\"" name))
      with
      | Error (Protocol.Bad_request msg) ->
          Alcotest.(check bool) ("names the backend " ^ name) true
            (Astring_contains.contains ~needle:name msg)
      | _ -> Alcotest.failf "backend %s must be Bad_request" name)
    [ "stencil"; "hybrid"; "jit"; "guided" ];
  (* a field the decoder does not read, like the retired "profile"
     object, is ignored: the frame decodes as if it were absent *)
  let with_profile =
    frame ",\"profile\":{\"fgc_profile\":1,\"programs\":3}"
  in
  match (bare, parse_request with_profile) with
  | Ok a, Ok b -> Alcotest.(check bool) "profile field ignored" true (a = b)
  | _ -> Alcotest.fail "a stray profile field must not reject the frame"

let test_request_bad_shapes () =
  let bad s =
    match parse_request s with
    | Error (Protocol.Bad_request _) -> ()
    | Error (Protocol.Bad_version _) -> Alcotest.failf "%s: not a version issue" s
    | Ok _ -> Alcotest.failf "accepted bad request: %s" s
  in
  bad "{\"v\":6}";
  bad "{\"v\":6,\"id\":1,\"kind\":\"frobnicate\"}";
  bad "{\"v\":6,\"kind\":\"stats\"}";
  (* program kinds need a source *)
  bad "{\"v\":6,\"id\":1,\"kind\":\"run\"}";
  bad "{\"v\":6,\"id\":1,\"kind\":\"check\",\"file\":\"x.fg\"}";
  (* the unit-cache and fuzz fleet frames are not kinds of this
     version: each is refused as an unknown kind *)
  List.iter
    (fun (kind, fields) ->
      match
        parse_request
          (Printf.sprintf "{\"v\":6,\"id\":1,\"kind\":\"%s\"%s}" kind fields)
      with
      | Error (Protocol.Bad_request msg) ->
          Alcotest.(check string) (kind ^ " is an unknown kind")
            (Printf.sprintf "unknown kind %S" kind) msg
      | _ -> Alcotest.failf "kind %s must be Bad_request" kind)
    [ ("cache_get", ",\"key\":\"aa\"");
      ("cache_put", ",\"key\":\"aa\",\"data\":\"bb\"");
      ("fuzz_one", ",\"seed\":1,\"size\":30,\"mutants\":0");
      ("fuzz_batch", ",\"coverage\":{\"a\":1},\"corpus\":{},\"have\":[]") ]

(* A decoder reads a connection through one buffer of its own: reading
   100 small frames allocates far less than one 64 KiB block per read
   would. *)
let test_read_buffer_reused () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let dec = Protocol.decoder () in
      let n = 100 in
      let frames = Array.make n "" in
      (* [Gc.allocated_bytes] leaves out what still sits in the minor
         heap, so empty it before each reading. *)
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      for i = 0 to n - 1 do
        Protocol.write_frame a "{}";
        if Protocol.read_chunk dec b then
          match Protocol.next_frame dec with
          | `Frame p -> frames.(i) <- p
          | _ -> ()
      done;
      Gc.minor ();
      let allocated = Gc.allocated_bytes () -. before in
      Alcotest.(check bool) "every frame read" true
        (Array.for_all (String.equal "{}") frames);
      Alcotest.(check bool)
        (Printf.sprintf "%.0f bytes allocated for %d reads" allocated n)
        true
        (allocated < float_of_int (n * 65536 / 10)))

let test_response_roundtrip () =
  List.iter
    (fun st ->
      let resp =
        Protocol.{ r_id = 9; r_status = st; r_payload = "{\"ok\":true}\n" }
      in
      match Protocol.response_of_json (Protocol.response_to_json resp) with
      | Ok r ->
          Alcotest.(check int) "id" 9 r.Protocol.r_id;
          Alcotest.(check string) "status"
            (Protocol.status_name st)
            (Protocol.status_name r.Protocol.r_status);
          (* the payload is carried as opaque pre-rendered text:
             byte-exact through the wire, trailing newline included *)
          Alcotest.(check string) "payload bytes" "{\"ok\":true}\n"
            r.Protocol.r_payload
      | Error e -> Alcotest.failf "response round-trip failed: %s" e)
    Protocol.
      [ Ok_; Failed; Timeout; Overload; Shutting_down; Protocol_error ]

let test_error_payload_shape () =
  let p =
    Protocol.error_payload ~file:"<conn>" ~code:"FG0803" "bad frame: %s" "x"
  in
  match Fg_util.Json.of_string p with
  | Ok j ->
      Alcotest.(check (option bool)) "ok:false" (Some false)
        (Fg_util.Json.bool_field "ok" j);
      Alcotest.(check (option string)) "file" (Some "<conn>")
        (Fg_util.Json.str_field "file" j);
      (match Fg_util.Json.mem "diagnostics" j with
      | Some (Fg_util.Json.List [ d ]) ->
          Alcotest.(check (option string)) "code" (Some "FG0803")
            (Fg_util.Json.str_field "code" d)
      | _ -> Alcotest.fail "expected one diagnostic")
  | Error e -> Alcotest.failf "error payload is not valid JSON: %s" e

let suite =
  [
    Alcotest.test_case "decoder: one byte at a time" `Quick test_byte_at_a_time;
    Alcotest.test_case "decoder: two frames in one chunk" `Quick
      test_two_frames_one_chunk;
    Alcotest.test_case "decoder: oversized prefix" `Quick test_oversized_prefix;
    Alcotest.test_case "decoder: max_frame boundary" `Quick
      test_oversized_exact_boundary;
    Alcotest.test_case "decoder: garbage bytes" `Quick test_garbage_bytes;
    Alcotest.test_case "decoder: empty frame" `Quick test_empty_frame;
    Alcotest.test_case "decoder: one read buffer" `Quick
      test_read_buffer_reused;
    Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
    Alcotest.test_case "request version mismatch" `Quick
      test_request_version_mismatch;
    Alcotest.test_case "request bad shapes" `Quick test_request_bad_shapes;
    Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
    Alcotest.test_case "error payload shape" `Quick test_error_payload_shape;
    Alcotest.test_case "no backend field means dict" `Quick
      test_no_backend_routes_dict;
    Alcotest.test_case "request backend field" `Quick
      test_request_backend_field;
  ]
