(** Minimal JSON codec (see json.mli). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --------------------------- printing ------------------------------ *)

(* [to_string] measures its output first and then fills one string of
   exactly that size, so an encode allocates its result and nothing else:
   no buffer regrown by doubling and no final copy out of it, blocks that
   for a line past 2 KB go straight to the major heap. *)

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let int_len i =
  if i = min_int then String.length (string_of_int i)
  else begin
    let n = ref (if i < 0 then 2 else 1) and v = ref (abs i) in
    while !v >= 10 do
      v := !v / 10;
      incr n
    done;
    !n
  end

let escaped_len s =
  let n = ref 2 in
  for i = 0 to String.length s - 1 do
    n :=
      !n
      +
      match String.unsafe_get s i with
      | '"' | '\\' | '\n' | '\r' | '\t' -> 2
      | c when Char.code c < 0x20 -> 6
      | _ -> 1
  done;
  !n

(* bytes before an item of a container at [depth]: the comma, then in
   pretty mode a newline and the item's indent *)
let sep_len pretty depth first =
  (if first then 0 else 1) + if pretty then 1 + (2 * (depth + 1)) else 0

let close_len pretty depth = if pretty then 1 + (2 * depth) else 0

let rec encoded_len pretty depth = function
  | Null -> 4
  | Bool b -> if b then 4 else 5
  | Int i -> int_len i
  | Float f -> String.length (float_repr f)
  | String s -> escaped_len s
  | List [] | Obj [] -> 2
  | List items -> items_len pretty depth 2 true items
  | Obj fields -> fields_len pretty depth 2 true fields

and items_len pretty depth acc first = function
  | [] -> acc + close_len pretty depth
  | item :: rest ->
    items_len pretty depth
      (acc + sep_len pretty depth first + encoded_len pretty (depth + 1) item)
      false rest

and fields_len pretty depth acc first = function
  | [] -> acc + close_len pretty depth
  | (k, item) :: rest ->
    fields_len pretty depth
      (acc + sep_len pretty depth first + escaped_len k
      + (if pretty then 2 else 1)
      + encoded_len pretty (depth + 1) item)
      false rest

let to_string ?(pretty = false) v =
  let out = Bytes.create (encoded_len pretty 0 v) in
  let pos = ref 0 in
  let char c =
    Bytes.set out !pos c;
    incr pos
  in
  let string s =
    Bytes.blit_string s 0 out !pos (String.length s);
    pos := !pos + String.length s
  in
  let newline depth =
    if pretty then begin
      char '\n';
      Bytes.fill out !pos (2 * depth) ' ';
      pos := !pos + (2 * depth)
    end
  in
  let escaped s =
    char '"';
    for i = 0 to String.length s - 1 do
      match String.unsafe_get s i with
      | '"' -> string "\\\""
      | '\\' -> string "\\\\"
      | '\n' -> string "\\n"
      | '\r' -> string "\\r"
      | '\t' -> string "\\t"
      | c when Char.code c < 0x20 ->
        string (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> char c
    done;
    char '"'
  in
  let digits i =
    if i = min_int then string (string_of_int i)
    else begin
      let stop = !pos + int_len i and v = ref (abs i) in
      for k = stop - 1 downto if i < 0 then !pos + 1 else !pos do
        Bytes.set out k (Char.unsafe_chr (48 + (!v mod 10)));
        v := !v / 10
      done;
      if i < 0 then Bytes.set out !pos '-';
      pos := stop
    end
  in
  let rec write depth = function
    | Null -> string "null"
    | Bool b -> string (if b then "true" else "false")
    | Int i -> digits i
    | Float f -> string (float_repr f)
    | String s -> escaped s
    | List [] -> string "[]"
    | Obj [] -> string "{}"
    | List items ->
      char '[';
      write_items depth true items;
      newline depth;
      char ']'
    | Obj fields ->
      char '{';
      write_fields depth true fields;
      newline depth;
      char '}'
  and write_items depth first = function
    | [] -> ()
    | item :: rest ->
      if not first then char ',';
      newline (depth + 1);
      write (depth + 1) item;
      write_items depth false rest
  and write_fields depth first = function
    | [] -> ()
    | (k, item) :: rest ->
      if not first then char ',';
      newline (depth + 1);
      escaped k;
      string (if pretty then ": " else ":");
      write (depth + 1) item;
      write_fields depth false rest
  in
  write 0 v;
  assert (!pos = Bytes.length out);
  Bytes.unsafe_to_string out

(* --------------------------- parsing ------------------------------- *)

exception Parse_error of int * string

let parse_error pos fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error (pos, msg))) fmt

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> parse_error !pos "expected %c, found %c" c c'
    | None -> parse_error !pos "expected %c, found end of input" c
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else parse_error !pos "invalid literal"
  in
  (* UTF-8-encode one \uXXXX code point (surrogate pairs not joined —
     the cache never emits them) *)
  let add_code_point buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then parse_error !pos "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
        if !pos >= n then parse_error !pos "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if !pos + 4 > n then parse_error !pos "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          let cp =
            try int_of_string ("0x" ^ hex)
            with _ -> parse_error !pos "bad \\u escape %s" hex
          in
          add_code_point buf cp
        | c -> parse_error !pos "bad escape \\%c" c);
        loop ())
      | c -> Buffer.add_char buf c; loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        advance ()
      done
    in
    digits ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> parse_error start "bad number %s" text
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> parse_error start "bad number %s" text
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_error !pos "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> parse_error !pos "expected , or } in object"
        in
        fields []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> parse_error !pos "expected , or ] in array"
        in
        items []
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> parse_error !pos "unexpected character %c" c
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then parse_error !pos "trailing garbage"
    else Ok v
  with Parse_error (at, msg) -> Error (Printf.sprintf "JSON error at byte %d: %s" at msg)

(* --------------------------- accessors ----------------------------- *)

exception Type_error of string

let type_error fmt = Printf.ksprintf (fun msg -> raise (Type_error msg)) fmt

let kind = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | List _ -> "list"
  | Obj _ -> "object"

let member_opt key = function
  | Obj fields -> List.assoc_opt key fields
  | v -> type_error "expected object with %S, found %s" key (kind v)

let member key v =
  match member_opt key v with
  | Some f -> f
  | None -> type_error "missing field %S" key

let to_int = function
  | Int i -> i
  | v -> type_error "expected int, found %s" (kind v)

let to_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | v -> type_error "expected float, found %s" (kind v)

let to_bool = function
  | Bool b -> b
  | v -> type_error "expected bool, found %s" (kind v)

let to_str = function
  | String s -> s
  | v -> type_error "expected string, found %s" (kind v)

let to_list = function
  | List l -> l
  | v -> type_error "expected list, found %s" (kind v)

let decode f v = try Ok (f v) with Type_error msg -> Error msg
