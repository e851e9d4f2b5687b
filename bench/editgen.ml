(* Edit-trace generator for the workspace language service.

   Builds an in-process workspace, opens every program in the
   programs/ corpus, then drives a synthetic editing session against
   each: repeated single-character line-preserving edits (an integer
   literal bumped and reverted), each immediately re-checked, the way
   an editor's diagnostics-on-type loop would.  Reports the
   edit-to-diagnostics latency distribution and asserts the p95
   against a bar.

   Also cross-checks correctness on every edit: the diagnostics
   payload after each change must be byte-identical to a cold check of
   the same text in a fresh session (the warm path replays cached
   declarations; the bytes must not know that).

   Run:  dune exec bench/editgen.exe                  (40 edits/program)
         EDITGEN_EDITS=6 dune exec bench/editgen.exe  (CI smoke)
         EDITGEN_P95_MS=50 dune exec bench/editgen.exe  (assert the bar)

   Exits nonzero on any byte mismatch or a p95 above the bar. *)

open Fg_util
module W = Fg_workspace.Workspace

let edits_per_program =
  match Sys.getenv_opt "EDITGEN_EDITS" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 40)
  | None -> 40

(* The latency bar, in milliseconds; 0 disables the assertion. *)
let p95_bar_ms =
  match Sys.getenv_opt "EDITGEN_P95_MS" with
  | Some s -> ( try float_of_string s with _ -> 0.)
  | None -> 0.

let programs_dir =
  if Sys.file_exists "programs" then "programs"
  else if Sys.file_exists "../programs" then "../programs"
  else failwith "editgen: cannot find the programs/ corpus from the cwd"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let corpus =
  Sys.readdir programs_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".fg")
  |> List.sort String.compare
  |> List.map (fun f ->
         let path = Filename.concat programs_dir f in
         (path, read_file path))

(* Digit positions in the text — flipping one digit to another is the
   canonical line-preserving edit (same byte count, same line/column
   geometry for everything after it). *)
let digit_offsets text =
  let acc = ref [] in
  String.iteri
    (fun i c -> if c >= '0' && c <= '9' then acc := i :: !acc)
    text;
  Array.of_list (List.rev !acc)

let ok_exn name = function
  | Ok payload -> payload
  | Error e -> failwith (Printf.sprintf "%s: %s %s" name e.W.ws_code e.W.ws_msg)

let () =
  if corpus = [] then failwith "editgen: empty corpus";
  let ws = W.create () in
  let hist = Telemetry.Histogram.create () in
  let mismatches = ref 0 in
  let total_edits = ref 0 in
  let version = ref 0 in
  List.iter
    (fun (path, text) ->
      incr version;
      ignore
        (ok_exn "open"
           (W.open_doc ws ~name:path ~version:!version ~prelude:true
              ~global_models:false text));
      let digits = digit_offsets text in
      if Array.length digits > 0 then begin
        let txt = ref text in
        for i = 1 to edits_per_program do
          let off = digits.(i mod Array.length digits) in
          let old_c = !txt.[off] in
          let new_c = if old_c = '9' then '1' else Char.chr (Char.code old_c + 1) in
          incr version;
          let t0 = Telemetry.now_ns () in
          let payload =
            ok_exn "change"
              (W.change_doc ws ~name:path ~version:!version
                 (W.Edits
                    [ { W.e_start = off; e_len = 1;
                        e_text = String.make 1 new_c } ]))
          in
          Telemetry.Histogram.observe hist (Telemetry.now_ns () - t0);
          incr total_edits;
          txt :=
            String.sub !txt 0 off
            ^ String.make 1 new_c
            ^ String.sub !txt (off + 1) (String.length !txt - off - 1);
          (* Cold cross-check on the first and last edit of each
             program (a full fresh-workspace check per edit would
             dominate the run). *)
          if i = 1 || i = edits_per_program then begin
            let cold = W.create () in
            let cold_payload =
              ok_exn "cold open"
                (W.open_doc cold ~name:path ~version:1 ~prelude:true
                   ~global_models:false !txt)
            in
            if cold_payload <> payload then begin
              incr mismatches;
              Fmt.epr "editgen: MISMATCH %s after edit %d@." path i
            end
          end
        done
      end;
      ignore (ok_exn "close" (W.close_doc ws ~name:path)))
    corpus;
  let p50 = float_of_int (Telemetry.Histogram.percentile hist 50.) /. 1e6 in
  let p95 = float_of_int (Telemetry.Histogram.percentile hist 95.) /. 1e6 in
  let p99 = float_of_int (Telemetry.Histogram.percentile hist 99.) /. 1e6 in
  Fmt.pr
    "editgen: %d programs, %d edits; edit-to-diagnostics p50=%.2fms \
     p95=%.2fms p99=%.2fms (mismatches: %d)@."
    (List.length corpus) !total_edits p50 p95 p99 !mismatches;
  if !mismatches > 0 then exit 1;
  if p95_bar_ms > 0. && p95 > p95_bar_ms then begin
    Fmt.epr "editgen: p95 %.2fms exceeds the %.2fms bar@." p95 p95_bar_ms;
    exit 1
  end
