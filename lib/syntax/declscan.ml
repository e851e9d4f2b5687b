(** Declaration boundary scanning, shared by every consumer that needs
    to ask "does a declaration start here?" — the REPL's input
    classifier, the recovering parser's resynchronization, and the
    workspace document splitter.  One keyword list, one classification
    rule. *)

let decl_keywords = [ "concept"; "model"; "let"; "type"; "using" ]

let is_decl_kw tok =
  match tok with
  | Token.KW k -> List.mem k decl_keywords
  | _ -> false

(* Classify by the first lexed token rather than a string prefix: this
   accepts 'using', tab-indented declarations and 'model<...>' variants
   uniformly, and never misfires on identifiers like 'letter'.  Text
   that does not even lex is not a declaration — the expression path
   will report its error. *)
let is_decl_start line =
  match Fg_util.Diag.protect (fun () -> Lexer.tokenize line) with
  | Error _ -> false
  | Ok toks -> is_decl_kw (Lexer.token toks 0)
