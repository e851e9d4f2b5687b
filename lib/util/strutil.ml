(** Small string utilities shared by the driver, the REPL and tests. *)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  if nn = 0 then true
  else
    let rec at i = if i + nn > nh then false else String.sub hay i nn = needle || at (i + 1) in
    at 0

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    (* One-row dynamic programme: [prev.(j)] is the distance between
       [a[0..i-1]] and [b[0..j-1]]. *)
    let prev = Array.init (lb + 1) Fun.id in
    let curr = Array.make (lb + 1) 0 in
    for i = 1 to la do
      curr.(0) <- i;
      for j = 1 to lb do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        curr.(j) <- min (min (curr.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit curr 0 prev 0 (lb + 1)
    done;
    prev.(lb)
  end

let hex_encode s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let nearest ~candidates name =
  (* A candidate differing only in letter case is always a plausible
     typo (distance 0 here), even for one-character names where the
     length-relative cutoff below would otherwise reject everything. *)
  let lname = String.lowercase_ascii name in
  let distance c =
    if String.lowercase_ascii c = lname then 0 else levenshtein name c
  in
  let limit = min 2 (String.length name - 1) in
  let best =
    List.fold_left
      (fun best c ->
        if c = name then best
        else
          let d = distance c in
          if d > 0 && (limit <= 0 || d > limit) then best
          else
            match best with
            (* [<=] keeps the earliest candidate on equal distance. *)
            | Some (_, bd) when bd <= d -> best
            | _ -> Some (c, d))
      None candidates
  in
  Option.map fst best
