(* A deliberately small JSON implementation: the telemetry files written by
   Dpoaf_exec.Trace and read back by `dpoaf_cli report` are plain data
   (objects, arrays, strings, numbers), so a recursive-descent parser over a
   string is all that is needed — no external dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---------------- writing ---------------- *)

(* Everything is appended straight into one [Buffer]: [write] renders a
   tree, and the [write_*] primitives let a codec emit a fixed record
   shape field by field without building one. *)

(* the C primitive that [Printf]'s [%g] ends in (as [string_of_float]
   does), without interpreting a format at every call *)
external format_float : string -> float -> string = "caml_format_float"

let hex = "0123456789abcdef"

(* clean runs are copied whole; only quote, backslash and control bytes
   are escaped, so UTF-8 passes through untouched *)
let write_string b s =
  Buffer.add_char b '"';
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring b s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c ->
          Buffer.add_string b "\\u00";
          Buffer.add_char b hex.[Char.code c lsr 4];
          Buffer.add_char b hex.[Char.code c land 15]);
      start := i + 1
    end
  done;
  Buffer.add_substring b s !start (n - !start);
  Buffer.add_char b '"'

(* decimal digits of [n <= 0], most significant first: counting on the
   negative side covers [min_int] too *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let write_float b v =
  if Float.is_nan v || Float.abs v = Float.infinity then
    Buffer.add_string b "null"
  else if Float.is_integer v && Float.abs v < 1e15 then begin
    (* exact as an int below 1e15; the sign bit keeps "-0" *)
    if Float.sign_bit v then Buffer.add_char b '-';
    add_neg_digits b (- Float.to_int (Float.abs v))
  end
  else
    (* shortest representation that round-trips the exact value — %g with
       a fixed low precision would truncate µs-scale timestamps *)
    let s = format_float "%.15g" v in
    let s = if float_of_string s = v then s else format_float "%.17g" v in
    Buffer.add_string b s

(* the same bytes as [write_float (float_of_int n)] *)
let write_int b n =
  if n > -1_000_000_000_000_000 && n < 1_000_000_000_000_000 then begin
    if n < 0 then Buffer.add_char b '-';
    add_neg_digits b (if n < 0 then n else -n)
  end
  else write_float b (float_of_int n)

let write_bool b v = Buffer.add_string b (if v then "true" else "false")

(* a value never ends in '{' or '[', so the byte before tells whether a
   member or element is the first of its container *)
let write_sep b =
  match Buffer.nth b (Buffer.length b - 1) with
  | '{' | '[' -> ()
  | _ -> Buffer.add_char b ','

let write_key b k =
  write_sep b;
  write_string b k;
  Buffer.add_char b ':'

let rec write_elements f b = function
  | [] -> ()
  | x :: rest ->
      write_sep b;
      f b x;
      write_elements f b rest

let write_list f b xs =
  Buffer.add_char b '[';
  write_elements f b xs;
  Buffer.add_char b ']'

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> write_bool b v
  | Num v -> write_float b v
  | Str s -> write_string b s
  | Arr xs -> write_list write b xs
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iter
        (fun (k, v) ->
          write_key b k;
          write b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* ---------------- parsing ---------------- *)

exception Bad of string

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  (* '\000' past the end: no branch matches it, and the one place that
     must tell the end from a NUL byte tests [!pos] *)
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let l = String.length word in
    let rec matches i = i = l || (s.[!pos + i] = word.[i] && matches (i + 1)) in
    if !pos + l <= n && matches 0 then begin
      pos := !pos + l;
      value
    end
    else fail ("expected " ^ word)
  in
  (* the rest of a string that has escapes: [start] is just past the
     opening quote, [!pos] at the first backslash (or the end of input) *)
  let parse_escaped start =
    let b = Buffer.create (!pos - start + 16) in
    Buffer.add_substring b s start (!pos - start);
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
            if !pos + 4 > n then fail "bad \\u escape";
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            let code =
              try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
            in
            (* non-ASCII code points are re-encoded as UTF-8 *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end
        | _ -> fail "bad escape");
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    while !pos < n && s.[!pos] <> '"' && s.[!pos] <> '\\' do
      advance ()
    done;
    if !pos < n && s.[!pos] = '"' then begin
      (* no escape: the contents are one slice of the input *)
      advance ();
      String.sub s start (!pos - 1 - start)
    end
    else parse_escaped start
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numchar s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v when Float.is_finite v -> v
    | Some _ -> fail "number out of range"
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match peek () with
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                items (v :: acc)
            | ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ] in array"
          in
          Arr (items [])
        end
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                fields (kv :: acc)
            | '}' ->
                advance ();
                List.rev (kv :: acc)
            | _ -> fail "expected , or } in object"
          in
          Obj (fields [])
        end
    | _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s =
  match parse_exn s with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* ---------------- accessors ---------------- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_float = function Num v -> Some v | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr xs -> Some xs | _ -> None

(* within 2^53 of zero every integer is exactly one float; beyond it, or
   off an integer, [int_of_float] would round or wrap *)
let is_int v = Float.is_integer v && Float.abs v <= 0x1p53

let obj kvs = Obj kvs
let str s = Str s
let num v = Num v
let arr xs = Arr xs
