(* Prints the OCaml source of [Prelude_image]: the standard prelude's
   session image under each resolution mode, as string literals, and
   [install], which registers them with [Session.Image].  The images
   are marshalled data, not OCaml values in the source: a string
   literal is one relocation-free block, where a data structure would
   cost one load-time relocation per pointer in a PIE binary. *)

open Fg_core

let () =
  let image mode =
    Session.Image.make
      (Session.Config.with_standard_prelude
         { Session.Config.default with resolution = mode })
  in
  let lexical = image Resolution.Lexical and global = image Resolution.Global in
  Printf.printf
    "(* Generated by gen_image.exe at build time from Prelude.full; do not \
     edit.\n\
    \   Image sizes: lexical %d bytes, global %d bytes. *)\n\n"
    (String.length lexical) (String.length global);
  Printf.printf "let lexical = %S\n\nlet global = %S\n\n" lexical global;
  print_string
    "let install () =\n\
    \  Fg_core.Session.Image.install Fg_core.Resolution.Lexical lexical;\n\
    \  Fg_core.Session.Image.install Fg_core.Resolution.Global global\n"
