(** On-disk content-addressed unit store (see the interface). *)

open Fg_util

let format_version = 1

type t = { root : string }

(* ---------------------------------------------------------------- *)
(* Blob framing                                                      *)

(* The linker's GNU build-id note (NT_GNU_BUILD_ID) names a binary as
   exactly as a digest of the file does: the linker computes it over
   the whole linked output.  Reading it costs a few hundred bytes of
   ELF headers; digesting the executable costs every byte of it (about
   15 ms for fgc, paid by every process that touches the store).  Any
   malformed or truncated header reads as "no note". *)
let elf_build_id path =
  let read ic off len =
    seek_in ic off;
    really_input_string ic len
  in
  let parse ic =
    let ident = read ic 0 16 in
    if String.sub ident 0 4 <> "\x7fELF" then None
    else
      let wide = ident.[4] = '\002' and le = ident.[5] = '\001' in
      let u16 s o =
        if le then String.get_uint16_le s o else String.get_uint16_be s o
      in
      let u32 s o =
        Int32.to_int
          (if le then String.get_int32_le s o else String.get_int32_be s o)
        land 0xFFFF_FFFF
      in
      let word s o =
        if not wide then u32 s o
        else
          Int64.to_int
            (if le then String.get_int64_le s o else String.get_int64_be s o)
      in
      let hdr = read ic 0 (if wide then 64 else 52) in
      let phoff = word hdr (if wide then 0x20 else 0x1c) in
      let phentsize = u16 hdr (if wide then 0x36 else 0x2a) in
      let phnum = u16 hdr (if wide then 0x38 else 0x2c) in
      (* Notes are name/desc pairs padded to the segment's alignment:
         4 bytes, or 8 for 64-bit property notes. *)
      let rec scan_notes seg align pos =
        if pos + 12 > String.length seg then None
        else
          let namesz = u32 seg pos and descsz = u32 seg (pos + 4) in
          let pad n = (n + align - 1) / align * align in
          let name_at = pos + 12 in
          let desc_at = name_at + pad namesz in
          if desc_at + descsz > String.length seg then None
          else if
            u32 seg (pos + 8) = 3
            && namesz = 4
            && String.sub seg name_at 4 = "GNU\000"
          then Some (Strutil.hex_encode (String.sub seg desc_at descsz))
          else scan_notes seg align (desc_at + pad descsz)
      in
      let rec scan_segments i =
        if i >= phnum then None
        else
          let ph = read ic (phoff + (i * phentsize)) phentsize in
          let found =
            if u32 ph 0 <> 4 (* PT_NOTE *) then None
            else
              let offset = word ph (if wide then 8 else 4) in
              let filesz = word ph (if wide then 32 else 16) in
              let align = word ph (if wide then 48 else 28) in
              if filesz > 65536 then None
              else
                scan_notes (read ic offset filesz)
                  (if align = 8 then 8 else 4)
                  0
          in
          match found with Some _ -> found | None -> scan_segments (i + 1)
      in
      scan_segments 0
  in
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> try parse ic with _ -> None)

(* Unit keys and the marshalled units in blob bodies only make sense
   to the build that wrote them: the stamp pins format, OCaml version
   and the exact binary (its build-id note, or a digest of the file
   when it has none), and the body digest pins the bytes.  Anything
   that fails to match is a miss.  Domains racing to compute the stamp
   compute the same string, so a plain atomic cell suffices. *)
let stamp_cell = Atomic.make None

let stamp () =
  match Atomic.get stamp_cell with
  | Some s -> s
  | None ->
      let id =
        match elf_build_id Sys.executable_name with
        | Some id -> id
        | None -> (
            try Digest.to_hex (Digest.file Sys.executable_name)
            with Sys_error _ -> "unknown")
      in
      let s =
        Printf.sprintf "fgcache %d %s %s" format_version Sys.ocaml_version id
      in
      Atomic.set stamp_cell (Some s);
      s

let encode_blob body =
  String.concat "\n"
    [ stamp (); Digest.to_hex (Digest.string body); body ]

let decode_blob s =
  match String.index_opt s '\n' with
  | None -> None
  | Some i when String.sub s 0 i <> stamp () -> None
  | Some i -> (
      match String.index_from_opt s (i + 1) '\n' with
      | None -> None
      | Some j ->
          let dhex = String.sub s (i + 1) (j - i - 1) in
          let body = String.sub s (j + 1) (String.length s - j - 1) in
          if Digest.to_hex (Digest.string body) = dhex then Some body
          else None)

(* ---------------------------------------------------------------- *)
(* Paths                                                             *)

let shard_of hex = if String.length hex >= 2 then String.sub hex 0 2 else hex

let entry_path t key =
  let hex = Strutil.hex_encode key in
  Filename.concat (Filename.concat t.root (shard_of hex)) hex

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_store root =
  (try mkdir_p root
   with Unix.Unix_error (e, _, _) ->
     Diag.config_error ~code:"FG1002" "cannot create cache directory %s: %s"
       root (Unix.error_message e));
  if not (try Sys.is_directory root with Sys_error _ -> false) then
    Diag.config_error ~code:"FG1002"
      "cache directory %s is not a directory" root;
  { root }

(* ---------------------------------------------------------------- *)
(* Get / put                                                         *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try Some (really_input_string ic (in_channel_length ic))
          with End_of_file | Sys_error _ -> None)

let miss () =
  Telemetry.record_disk_miss ();
  None

(* A validation failure is *removed* (it can never validate again in
   this build) and read as a miss. *)
let drop_corrupt path =
  Telemetry.record_corrupt_entry ();
  (try Sys.remove path with Sys_error _ -> ());
  miss ()

let get t key =
  let path = entry_path t key in
  match read_file path with
  | None -> miss ()
  | Some raw -> (
      match decode_blob raw with
      | None -> drop_corrupt path
      | Some body ->
          Telemetry.record_disk_hit ();
          Some body)

let put t key body =
  let path = entry_path t key in
  if not (Sys.file_exists path) then
    match
      mkdir_p (Filename.dirname path);
      Filename.open_temp_file ~temp_dir:t.root ~mode:[ Open_binary ] "put"
        ".tmp"
    with
    | exception _ -> () (* unwritable store: degrade to uncached *)
    | tmp, oc -> (
        try
          output_string oc (encode_blob body);
          close_out oc;
          Unix.rename tmp path
        with _ ->
          close_out_noerr oc;
          (try Sys.remove tmp with Sys_error _ -> ()))
