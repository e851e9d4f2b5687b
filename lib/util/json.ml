(** Minimal JSON emission and parsing (see the interface).  Writing our
    own keeps fg_util dependency-free; the emitter serves the driver's
    [--format=json] output and the parser serves the server wire
    protocol, whose frames must survive a byte-exact round-trip. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f ->
      (* JSON has no NaN/Infinity; clamp to null like most emitters *)
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
      else Buffer.add_string b "null"
  | Str s -> escape_string b s
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b ", ";
          write b x)
        xs;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          escape_string b k;
          Buffer.add_string b ": ";
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string t =
  let b = Buffer.create 256 in
  write b t;
  Buffer.contents b

let rec sort_keys = function
  | (Null | Bool _ | Int _ | Float _ | Str _) as v -> v
  | List items -> List (List.map sort_keys items)
  | Obj fields ->
      (* Stable sort, so among duplicate keys the original order is
         kept and the later one wins when read back left-to-right. *)
      Obj
        (List.stable_sort
           (fun (a, _) (b, _) -> String.compare a b)
           (List.map (fun (k, v) -> (k, sort_keys v)) fields))

(* ---------------------------------------------------------------- *)
(* Parsing                                                           *)

(* A recursive-descent reader over the input string.  Depth is bounded
   so a frame of ten thousand '[' characters cannot blow the stack:
   the wire protocol nests a handful of levels, so the cap is generous
   without being exploitable. *)

exception Parse_fail of int * string

let max_depth = 255

type reader = { s : string; mutable pos : int }

let fail r msg = raise (Parse_fail (r.pos, msg))
let peek r = if r.pos < String.length r.s then Some r.s.[r.pos] else None

let next r =
  match peek r with
  | Some c ->
      r.pos <- r.pos + 1;
      c
  | None -> fail r "unexpected end of input"

let skip_ws r =
  while
    match peek r with
    | Some (' ' | '\t' | '\n' | '\r') ->
        r.pos <- r.pos + 1;
        true
    | _ -> false
  do
    ()
  done

let expect r c =
  let got = next r in
  if got <> c then fail r (Printf.sprintf "expected '%c', found '%c'" c got)

let expect_lit r lit v =
  String.iter (fun c -> expect r c) lit;
  v

(* UTF-8-encode a code point into the buffer; \uXXXX escapes (including
   surrogate pairs) decode through here. *)
let add_utf8 b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 r =
  let digit () =
    match next r with
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | c -> fail r (Printf.sprintf "invalid hex digit '%c'" c)
  in
  let a = digit () in
  let b = digit () in
  let c = digit () in
  let d = digit () in
  (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

let parse_string r =
  expect r '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match next r with
    | '"' -> Buffer.contents b
    | '\\' ->
        (match next r with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
            let cp = hex4 r in
            if cp >= 0xD800 && cp <= 0xDBFF then begin
              (* high surrogate: must be followed by \uDC00-\uDFFF *)
              expect r '\\';
              expect r 'u';
              let lo = hex4 r in
              if lo < 0xDC00 || lo > 0xDFFF then
                fail r "unpaired surrogate in \\u escape";
              add_utf8 b
                (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
            end
            else if cp >= 0xDC00 && cp <= 0xDFFF then
              fail r "unpaired low surrogate in \\u escape"
            else add_utf8 b cp
        | c -> fail r (Printf.sprintf "invalid escape '\\%c'" c));
        loop ()
    | c when Char.code c < 0x20 ->
        fail r "unescaped control character in string"
    | c ->
        Buffer.add_char b c;
        loop ()
  in
  loop ()

let parse_number r =
  let start = r.pos in
  let is_float = ref false in
  if peek r = Some '-' then r.pos <- r.pos + 1;
  let digits () =
    let seen = ref false in
    while
      match peek r with
      | Some '0' .. '9' ->
          seen := true;
          r.pos <- r.pos + 1;
          true
      | _ -> false
    do
      ()
    done;
    if not !seen then fail r "malformed number"
  in
  digits ();
  (match peek r with
  | Some '.' ->
      is_float := true;
      r.pos <- r.pos + 1;
      digits ()
  | _ -> ());
  (match peek r with
  | Some ('e' | 'E') ->
      is_float := true;
      r.pos <- r.pos + 1;
      (match peek r with
      | Some ('+' | '-') -> r.pos <- r.pos + 1
      | _ -> ());
      digits ()
  | _ -> ());
  let text = String.sub r.s start (r.pos - start) in
  if !is_float then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> Float (float_of_string text)

let rec parse_value r depth =
  if depth > max_depth then fail r "nesting too deep";
  skip_ws r;
  match peek r with
  | None -> fail r "unexpected end of input"
  | Some '"' -> Str (parse_string r)
  | Some 'n' -> expect_lit r "null" Null
  | Some 't' -> expect_lit r "true" (Bool true)
  | Some 'f' -> expect_lit r "false" (Bool false)
  | Some ('-' | '0' .. '9') -> parse_number r
  | Some '[' ->
      r.pos <- r.pos + 1;
      skip_ws r;
      if peek r = Some ']' then begin
        r.pos <- r.pos + 1;
        List []
      end
      else
        let rec items acc =
          let v = parse_value r (depth + 1) in
          skip_ws r;
          match next r with
          | ',' -> items (v :: acc)
          | ']' -> List (List.rev (v :: acc))
          | c -> fail r (Printf.sprintf "expected ',' or ']', found '%c'" c)
        in
        items []
  | Some '{' ->
      r.pos <- r.pos + 1;
      skip_ws r;
      if peek r = Some '}' then begin
        r.pos <- r.pos + 1;
        Obj []
      end
      else
        let field () =
          skip_ws r;
          let k = parse_string r in
          skip_ws r;
          expect r ':';
          let v = parse_value r (depth + 1) in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws r;
          match next r with
          | ',' -> fields (kv :: acc)
          | '}' -> Obj (List.rev (kv :: acc))
          | c -> fail r (Printf.sprintf "expected ',' or '}', found '%c'" c)
        in
        fields []
  | Some c -> fail r (Printf.sprintf "unexpected character '%c'" c)

let of_string s =
  let r = { s; pos = 0 } in
  match parse_value r 0 with
  | v -> (
      skip_ws r;
      match peek r with
      | None -> Ok v
      | Some c ->
          Error
            (Printf.sprintf "byte %d: trailing content starting with '%c'"
               r.pos c))
  | exception Parse_fail (pos, msg) ->
      Error (Printf.sprintf "byte %d: %s" pos msg)

(* ---------------------------------------------------------------- *)
(* Accessors                                                         *)

let mem k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let str_field k j =
  match mem k j with Some (Str s) -> Some s | _ -> None

let int_field k j =
  match mem k j with
  | Some (Int n) -> Some n
  | Some (Float f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let bool_field k j =
  match mem k j with Some (Bool b) -> Some b | _ -> None
