(** Source locations and spans.

    Every token produced by a lexer carries a {!span}; AST nodes keep the
    span of the syntax they were parsed from so that diagnostics can point
    back into the source.  Programs constructed programmatically (e.g. the
    corpus builders or the random generator) use {!dummy}. *)

type pos = {
  line : int;  (** 1-based line number *)
  col : int;  (** 1-based column number *)
  offset : int;  (** 0-based byte offset into the source *)
}

type span = { file : string; start_pos : pos; end_pos : pos }

type t = span

let start_pos_of_file = { line = 1; col = 1; offset = 0 }

let dummy =
  { file = "<none>"; start_pos = start_pos_of_file; end_pos = start_pos_of_file }

let is_dummy s = s.file = "<none>"

let make ~file ~start_pos ~end_pos = { file; start_pos; end_pos }

(* By offset, then line, then column; every [merge] compares twice. *)
let cmp_pos a b =
  if a.offset <> b.offset then Int.compare a.offset b.offset
  else if a.line <> b.line then Int.compare a.line b.line
  else Int.compare a.col b.col

(** [merge a b] spans from the earlier start to the later end.  If either
    side is a dummy span the other side wins, so synthesized nodes inherit
    whatever location information is available.  Normalizing (rather than
    blindly taking [a.start]–[b.end]) keeps merged spans well-formed even
    when the parser's resynchronization after an error hands it sides in
    the wrong order. *)
let merge a b =
  if is_dummy a then b
  else if is_dummy b then a
  else
    {
      file = a.file;
      start_pos = (if cmp_pos a.start_pos b.start_pos <= 0
                   then a.start_pos else b.start_pos);
      end_pos = (if cmp_pos a.end_pos b.end_pos >= 0
                 then a.end_pos else b.end_pos);
    }

let is_well_formed s = is_dummy s || cmp_pos s.start_pos s.end_pos <= 0

(* Dummy spans contain nothing and fit anywhere: they mark synthesized
   nodes, which should neither answer position queries nor break the
   nesting invariant for their parents. *)
let contains s ~offset =
  (not (is_dummy s))
  && s.start_pos.offset <= offset
  && offset < max s.end_pos.offset (s.start_pos.offset + 1)

(** [nests ~parent ~child]: the relation every AST child span bears to
    its parent — contained in it, or (for declaration headers, whose
    span stops at their own syntax) starting at/after the parent's end. *)
let nests ~parent ~child =
  is_dummy parent || is_dummy child
  || (cmp_pos parent.start_pos child.start_pos <= 0
      && cmp_pos child.end_pos parent.end_pos <= 0)
  || cmp_pos parent.end_pos child.start_pos <= 0

let pp_pos ppf p = Fmt.pf ppf "%d:%d" p.line p.col

let pp ppf s =
  if is_dummy s then Fmt.string ppf "<unknown location>"
  else if s.start_pos.line = s.end_pos.line then
    Fmt.pf ppf "%s:%d:%d-%d" s.file s.start_pos.line s.start_pos.col
      s.end_pos.col
  else
    Fmt.pf ppf "%s:%a-%a" s.file pp_pos s.start_pos pp_pos s.end_pos

let to_string s = Fmt.str "%a" pp s
