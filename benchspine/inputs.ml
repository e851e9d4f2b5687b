(* Workload inputs, made from the programs/ corpus and a seed.  Nothing
   here starts a process or opens a socket, so tests can call it.

   Every workload is time-bounded, so its inputs are streams: the same
   seed yields the same stream, and the workload consumes a prefix of
   it.  [digest] hashes a fixed-length prefix of every stream a
   workload draws from. *)

module C = Fg_core

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* What a program's output must be.  None of it is produced by the
   compiler under test: values come from the corpus headers or from the
   generator definitions, codes from programs/errors/expected_codes.txt,
   and [Agrees] defers to the run's own interpreter-vs-translation
   oracle (a run that disagrees fails). *)
type expect =
  | Value of string  (** the [value_str] of a successful run *)
  | Codes of string list  (** diagnostic codes, in report order *)
  | Agrees

type program = {
  name : string;
  path : string;  (** where it lives on disk ("" for generated ones) *)
  source : string;
  expect : expect;
}

let rng seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ---------------------------------------------------------------- *)
(* The corpus                                                        *)

let header_key = "// expected value: "

let header_value source =
  String.split_on_char '\n' source
  |> List.find_map (fun l ->
         if String.starts_with ~prefix:header_key l then
           let k = String.length header_key in
           Some (String.sub l k (String.length l - k))
         else None)

(* The 22 well-typed programs, each with its header's expected value. *)
let corpus ~root =
  let dir = Filename.concat root "programs" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".fg")
  |> List.sort String.compare
  |> List.map (fun f ->
         let path = Filename.concat dir f in
         let source = read_file path in
         match header_value source with
         | Some v -> { name = f; path; source; expect = Value v }
         | None -> failwith (path ^ ": no '" ^ header_key ^ "' header"))

(* The error programs, each with its pinned diagnostic codes. *)
let errors ~root =
  let dir = Filename.concat (Filename.concat root "programs") "errors" in
  read_file (Filename.concat dir "expected_codes.txt")
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.index_opt line ':' with
         | None -> None
         | Some i ->
             let f = String.sub line 0 i in
             let codes =
               String.sub line (i + 1) (String.length line - i - 1)
               |> String.split_on_char ' '
               |> List.filter (fun s -> s <> "")
             in
             let path = Filename.concat dir f in
             Some { name = f; path; source = read_file path; expect = Codes codes })

(* An endless stream of seeded shuffles of [files]. *)
let shuffled_rounds ~seed ~tag files =
  let st = rng seed tag in
  fun () -> shuffle st files

let cycle rounds =
  let cur = ref [||] and i = ref 0 in
  fun () ->
    if !i >= Array.length !cur then begin
      cur := rounds ();
      i := 0
    end;
    let x = !cur.(!i) in
    incr i;
    x

(* serve_corpus phase A's fixed offered load, requests per second.  At
   400 a busy-looping neighbour process raised the p75 latency by a
   third; at 200, by 7%: the lower rate keeps queueing from amplifying
   whatever else the machine is doing. *)
let serve_rate = 200.

(* Exponential inter-arrival gaps (seconds) at [rate] per second: a
   Poisson arrival process.  The same gaps for every seed (the seed
   orders the files), so runs differ in which program arrives when, not
   in how bursty the arrivals are. *)
let poisson_gaps ~rate =
  let st = rng 0 "arrivals" in
  fun () -> -.log (1. -. Random.State.float st 1.) /. rate

(* ---------------------------------------------------------------- *)
(* serve_zipf: the loadgen working set                               *)

let zipf_distinct = 640
let zipf_depth = 20

(* A variant-unique declaration resolving equality at [list^20 int]
   through the parameterized model, on top of concept/model units
   shared by every variant.  A unit-cache miss re-pays the whole
   dictionary-chain resolution; a hit skips it. *)
let zipf_source i =
  let rec ty k = if k = 0 then "int" else "list (" ^ ty (k - 1) ^ ")" in
  let nil k =
    if k = 1 then "nil[int]" else Printf.sprintf "nil[%s]" (ty (k - 1))
  in
  let t = ty zipf_depth and n = nil zipf_depth in
  Printf.sprintf
    "concept Eq2<t> { eq : fn(t, t) -> bool; } in\n\
     model Eq2<int> { eq = ieq; } in\n\
     model <t> where Eq2<t> => Eq2<list t> {\n\
    \  eq = fix (go : fn(list t, list t) -> bool) =>\n\
    \    fun (a : list t, b : list t) =>\n\
    \      if null[t](a) then null[t](b)\n\
    \      else if null[t](b) then false\n\
    \      else Eq2<t>.eq(car[t](a), car[t](b)) && go(cdr[t](a), cdr[t](b));\n\
     } in\n\
     let veq_%d = fun (a : %s, b : %s) => Eq2<%s>.eq(a, b) in\n\
     veq_%d(%s, %s)"
    i t t t i n n

let zipf_program i =
  {
    name = Printf.sprintf "zipf_%d.fg" i;
    path = "";
    source = zipf_source i;
    expect = Value "true";
  }

(* 60% of draws are Zipf(1) over the working set (a hot head an LRU
   keeps on its own); 40% sweep the whole set cyclically, cycling cold
   units through a cache smaller than the set.  Each draw says whether
   it came from the sweep.  The sequence of ranks is the same for every
   seed and the seed relabels the variants, all of which cost the same
   to check: a seed that drew a luckier hit ratio would otherwise move
   the numbers as much as a change to the compiler. *)
let zipf_stream ~seed =
  let n = zipf_distinct in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. float_of_int (r + 1));
    cdf.(r) <- !acc
  done;
  let st = rng 0 "zipf" in
  let label = shuffle (rng seed "zipf") (Array.init n Fun.id) in
  let pick_zipf () =
    let u = Random.State.float st !acc in
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then go (mid + 1) hi else go lo mid
    in
    go 0 (n - 1)
  in
  let sweep = ref 0 in
  fun () ->
    if Random.State.float st 1.0 < 0.6 then (label.(pick_zipf ()), false)
    else begin
      let r = !sweep in
      sweep := (r + 1) mod n;
      (label.(r), true)
    end

(* ---------------------------------------------------------------- *)
(* edit: literal digits to bump and revert                           *)

let is_digit c = c >= '0' && c <= '9'

let is_ident c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit c || c = '_'
  || c = '\''

(* Offsets of the digits outside [//] comments — only those of integer
   literals unless [in_names]. *)
let code_digits ~in_names text =
  let n = String.length text in
  let acc = ref [] and i = ref 0 in
  while !i < n do
    let c = text.[!i] in
    if c = '/' && !i + 1 < n && text.[!i + 1] = '/' then begin
      while !i < n && text.[!i] <> '\n' do incr i done
    end
    else if is_digit c || (in_names && is_ident c) then begin
      while !i < n && is_ident text.[!i] do
        if is_digit text.[!i] then acc := !i :: !acc;
        incr i
      done
    end
    else if is_ident c then begin
      while !i < n && is_ident text.[!i] do incr i done
    end
    else incr i
  done;
  Array.of_list (List.rev !acc)

(* Flipping a literal digit keeps the text's byte and line geometry and
   changes one declaration's content (a digit in a comment would
   change nothing, one in a name would break it). *)
let literal_digits = code_digits ~in_names:false

(* The digits an edit flips: the literals, or in a text without any, the
   digits in names, whose bump the revert then repairs. *)
let edit_digits text =
  match literal_digits text with
  | [||] -> code_digits ~in_names:true text
  | ds -> ds

let bump c = if c = '9' then '1' else Char.chr (Char.code c + 1)

(* Connection A's script: documents in seeded order (cycled), one
   literal digit per visit, which A bumps and then reverts. *)
let edit_visits ~seed docs =
  let editable =
    Array.of_list
      (List.filter_map
         (fun (i, p) ->
           let ds = edit_digits p.source in
           if Array.length ds = 0 then None else Some (i, ds))
         (List.mapi (fun i p -> (i, p)) (Array.to_list docs)))
  in
  let next_doc = cycle (shuffled_rounds ~seed ~tag:"edit-docs" editable) in
  let st = rng seed "edit-digits" in
  fun () ->
    let i, ds = next_doc () in
    (i, ds.(Random.State.int st (Array.length ds)))

(* Connection B's script: a document, a byte offset in it, and whether
   to ask for a hover or a completion. *)
let query_stream ~seed docs =
  let st = rng seed "edit-queries" in
  fun () ->
    let i = Random.State.int st (Array.length docs) in
    let off = Random.State.int st (max 1 (String.length docs.(i).source)) in
    (i, off, Random.State.bool st)

(* ---------------------------------------------------------------- *)
(* batch_gen                                                         *)

(* The six batch-scaling families of bench/main.ml plus three more,
   each with the value its generator definition implies (see
   lib/fg/genprog.ml): let_chain sums g_i(i) = 2i; many_models reads
   M0's get0 = 0; wide_where composes x + i over i < n; the diamond
   reads D0a's v0a = 1; same_type_chain computes 7 + 1; assoc_chain
   computes A0's zero + 1; param_depth compares two empty lists;
   fanout sums size(0) = 1 once per repetition at int and 0 at every
   empty list; accumulate sums 0 .. n-1. *)
let families =
  [
    ("let_chain_80", C.Genprog.let_chain 80, string_of_int (80 * 79));
    ("many_models_160", C.Genprog.many_models 160, "0");
    ("wide_where_32", C.Genprog.wide_where 32, string_of_int (32 * 31 / 2));
    ("refine_diamond_08", C.Genprog.refinement_diamond 8, "1");
    ("same_type_chain_64", C.Genprog.same_type_chain 64, "8");
    ("assoc_chain_24", C.Genprog.assoc_chain 24, "1");
    ("param_depth_10", C.Genprog.param_depth 10, "true");
    ("fanout_08_reps_06", C.Genprog.instantiation_fanout ~reps:6 8, "6");
    ("accumulate_600", C.Genprog.accumulate_workload 600,
     string_of_int (600 * 599 / 2));
  ]

let gen_programs = 200

(* The same 209 programs for every seed, in a seeded order: which
   programs a seed drew would change the amount of work, and the
   workload must measure the same work on every seed. *)
let batch_programs ~seed =
  List.map
    (fun (n, src, v) ->
      { name = n ^ ".fg"; path = ""; source = src; expect = Value v })
    families
  @ List.init gen_programs (fun i ->
        {
          name = Printf.sprintf "gen_%03d.fg" i;
          path = "";
          source = C.Pretty.exp_to_string (C.Gen.program_of_seed i);
          expect = Agrees;
        })
  |> Array.of_list
  |> shuffle (rng seed "batch_gen")
  |> Array.to_list

(* ---------------------------------------------------------------- *)
(* Digests                                                           *)

let workloads = [ "oneshot"; "serve_corpus"; "serve_zipf"; "edit"; "batch_gen" ]

(* Stream draws hashed per workload: more than any run consumes at the
   default length, so two runs that agree on the digest replayed the
   same inputs. *)
let digest_draws = 4096

let expect_to_string = function
  | Value v -> "value " ^ v
  | Codes cs -> "codes " ^ String.concat " " cs
  | Agrees -> "agrees"

let digest ~root ~seed workload =
  let b = Buffer.create 65536 in
  let add_program p =
    Printf.bprintf b "%s\000%s\000%s\n" p.name
      (Digest.to_hex (Digest.string p.source))
      (expect_to_string p.expect)
  in
  let draws n f =
    for _ = 1 to n do
      Buffer.add_string b (f ());
      Buffer.add_char b ';'
    done
  in
  let names a = String.concat "," (Array.to_list (Array.map (fun p -> p.name) a)) in
  (match workload with
  | "oneshot" ->
      let files = Array.of_list (corpus ~root) in
      Array.iter add_program files;
      draws (digest_draws / Array.length files)
        (fun () -> names (shuffled_rounds ~seed ~tag:"oneshot" files ()))
  | "serve_corpus" ->
      let c = Array.of_list (corpus ~root) and e = Array.of_list (errors ~root) in
      let files = Array.append c e in
      Array.iter add_program files;
      let next = cycle (shuffled_rounds ~seed ~tag:"serve_corpus" files) in
      let gap = poisson_gaps ~rate:serve_rate in
      draws digest_draws (fun () -> Printf.sprintf "%s@%h" (next ()).name (gap ()));
      List.iter
        (fun (tag, files) ->
          let next = cycle (shuffled_rounds ~seed ~tag files) in
          draws digest_draws (fun () -> (next ()).name))
        [ ("serve_corpus.b", c); ("serve_corpus.b.errors", e) ]
  | "serve_zipf" ->
      let next = zipf_stream ~seed in
      Buffer.add_string b (Digest.to_hex (Digest.string (zipf_source 0)));
      draws digest_draws (fun () ->
          let i, sweep = next () in
          Printf.sprintf "%d%s" i (if sweep then "s" else ""))
  | "edit" ->
      let docs = Array.of_list (corpus ~root) in
      Array.iter add_program docs;
      let visit = edit_visits ~seed docs and query = query_stream ~seed docs in
      draws digest_draws (fun () ->
          let d, off = visit () in
          let q, qoff, hover = query () in
          Printf.sprintf "%d:%d/%d:%d:%b" d off q qoff hover)
  | "batch_gen" -> List.iter add_program (batch_programs ~seed)
  | w -> invalid_arg ("unknown workload " ^ w));
  Digest.to_hex (Digest.string (Buffer.contents b))
