module Kripke = Dpoaf_automata.Kripke
module Ltl = Dpoaf_logic.Ltl
module Symbol = Dpoaf_logic.Symbol

type t = {
  name : string;
  kripke : Kripke.t;
  specs : (string * Ltl.t) list;
}

(* ---------------- lexer ---------------- *)

type token =
  | Tid of string
  | Tint of int
  | Tcolon
  | Tsemi
  | Tassign  (* := *)
  | Tdotdot
  | Tlparen
  | Trparen
  | Tbang
  | Tamp
  | Tbar
  | Tarrow
  | Teq

exception Error of string

let lex input =
  let n = String.length input in
  let toks = ref [] in
  let i = ref 0 in
  let is_id c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  in
  while !i < n do
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && input.[!i + 1] = '-' then begin
      (* comment to end of line *)
      while !i < n && input.[!i] <> '\n' do incr i done
    end
    else if c = '-' && !i + 1 < n && input.[!i + 1] = '>' then begin
      toks := Tarrow :: !toks;
      i := !i + 2
    end
    else if c = ':' && !i + 1 < n && input.[!i + 1] = '=' then begin
      toks := Tassign :: !toks;
      i := !i + 2
    end
    else if c = '.' && !i + 1 < n && input.[!i + 1] = '.' then begin
      toks := Tdotdot :: !toks;
      i := !i + 2
    end
    else if c >= '0' && c <= '9' then begin
      let j = ref !i in
      while !j < n && input.[!j] >= '0' && input.[!j] <= '9' do incr j done;
      toks := Tint (int_of_string (String.sub input !i (!j - !i))) :: !toks;
      i := !j
    end
    else if is_id c then begin
      let j = ref !i in
      while !j < n && is_id input.[!j] do incr j done;
      toks := Tid (String.sub input !i (!j - !i)) :: !toks;
      i := !j
    end
    else begin
      (match c with
      | ':' -> toks := Tcolon :: !toks
      | ';' -> toks := Tsemi :: !toks
      | '(' -> toks := Tlparen :: !toks
      | ')' -> toks := Trparen :: !toks
      | '!' -> toks := Tbang :: !toks
      | '&' -> toks := Tamp :: !toks
      | '|' -> toks := Tbar :: !toks
      | '=' -> toks := Teq :: !toks
      | c -> raise (Error (Printf.sprintf "unexpected character %c" c)));
      incr i
    end
  done;
  List.rev !toks

(* ---------------- boolean expressions ---------------- *)

type expr =
  | Etrue
  | Efalse
  | Eid of string
  | Estate_eq of int
  | Enext_eq of int
  | Enot of expr
  | Eand of expr * expr
  | Eor of expr * expr
  | Eimp of expr * expr

(* expressions end at section keywords or punctuation handled by callers *)
let section_keywords = [ "VAR"; "DEFINE"; "INIT"; "TRANS"; "LTLSPEC"; "case"; "esac"; "MODULE" ]

let rec p_imp toks =
  let lhs, toks = p_or toks in
  match toks with
  | Tarrow :: rest ->
      let rhs, rest = p_imp rest in
      (Eimp (lhs, rhs), rest)
  | _ -> (lhs, toks)

and p_or toks =
  let lhs, toks = p_and toks in
  let rec loop lhs = function
    | Tbar :: rest ->
        let rhs, rest = p_and rest in
        loop (Eor (lhs, rhs)) rest
    | toks -> (lhs, toks)
  in
  loop lhs toks

and p_and toks =
  let lhs, toks = p_unary toks in
  let rec loop lhs = function
    | Tamp :: rest ->
        let rhs, rest = p_unary rest in
        loop (Eand (lhs, rhs)) rest
    | toks -> (lhs, toks)
  in
  loop lhs toks

and p_unary = function
  | Tbang :: rest ->
      let e, rest = p_unary rest in
      (Enot e, rest)
  | Tlparen :: rest -> (
      let e, rest = p_imp rest in
      match rest with
      | Trparen :: rest -> (e, rest)
      | _ -> raise (Error "expected )"))
  | Tid "TRUE" :: rest -> (Etrue, rest)
  | Tid "FALSE" :: rest -> (Efalse, rest)
  | Tid "state" :: Teq :: Tint k :: rest -> (Estate_eq k, rest)
  | Tid "next" :: Tlparen :: Tid "state" :: Trparen :: Teq :: Tint k :: rest ->
      (Enext_eq k, rest)
  | Tid name :: rest when not (List.mem name section_keywords) -> (Eid name, rest)
  | _ -> raise (Error "expected boolean expression")

let rec eval_expr ~defines ~state ~next = function
  | Etrue -> true
  | Efalse -> false
  | Estate_eq k -> state = k
  | Enext_eq k -> (
      match next with
      | Some j -> j = k
      | None -> raise (Error "next(state) used outside TRANS"))
  | Eid name -> (
      match List.assoc_opt name defines with
      | Some e -> eval_expr ~defines ~state ~next e
      | None -> raise (Error (Printf.sprintf "undefined identifier %s" name)))
  | Enot e -> not (eval_expr ~defines ~state ~next e)
  | Eand (a, b) -> eval_expr ~defines ~state ~next a && eval_expr ~defines ~state ~next b
  | Eor (a, b) -> eval_expr ~defines ~state ~next a || eval_expr ~defines ~state ~next b
  | Eimp (a, b) ->
      (not (eval_expr ~defines ~state ~next a)) || eval_expr ~defines ~state ~next b

(* ---------------- LTL re-parsing ---------------- *)

(* Collect tokens up to the terminating ';' and rebuild an Ltl-parsable
   string ([V] maps to release, TRUE/FALSE to lowercase). *)
let ltl_until_semi toks =
  let buf = Buffer.create 64 in
  let rec go = function
    | [] -> raise (Error "unterminated LTLSPEC")
    | Tsemi :: rest -> (Buffer.contents buf, rest)
    | tok :: rest ->
        let s =
          match tok with
          | Tid "TRUE" -> "true"
          | Tid "FALSE" -> "false"
          | Tid "V" -> "R"
          | Tid name -> name
          | Tint k -> string_of_int k
          | Tlparen -> "("
          | Trparen -> ")"
          | Tbang -> "!"
          | Tamp -> "&"
          | Tbar -> "|"
          | Tarrow -> "->"
          | Teq | Tcolon | Tassign | Tdotdot -> raise (Error "token not allowed in LTL")
          | Tsemi -> assert false
        in
        Buffer.add_string buf s;
        Buffer.add_char buf ' ';
        go rest
  in
  go toks

(* ---------------- module parsing ---------------- *)

let parse_module toks =
  let name, toks =
    match toks with
    | Tid "MODULE" :: Tid name :: rest -> (name, rest)
    | _ -> raise (Error "expected MODULE <name>")
  in
  let n_states, toks =
    match toks with
    | Tid "VAR" :: Tid "state" :: Tcolon :: Tint lo :: Tdotdot :: Tint hi :: Tsemi :: rest
      ->
        if lo <> 0 then raise (Error "state range must start at 0");
        (hi + 1, rest)
    | _ -> raise (Error "expected VAR state : 0..N;")
  in
  (* DEFINE section (optional) *)
  let defines, toks =
    match toks with
    | Tid "DEFINE" :: rest ->
        let rec loop acc = function
          | Tid name :: Tassign :: rest when not (List.mem name section_keywords) ->
              let e, rest = p_imp rest in
              let rest =
                match rest with
                | Tsemi :: r -> r
                | _ -> raise (Error "expected ; after define")
              in
              loop ((name, e) :: acc) rest
          | toks -> (List.rev acc, toks)
        in
        loop [] rest
    | toks -> ([], toks)
  in
  let init_expr, toks =
    match toks with
    | Tid "INIT" :: rest -> p_imp rest
    | _ -> raise (Error "expected INIT")
  in
  let branches, toks =
    match toks with
    | Tid "TRANS" :: Tid "case" :: rest ->
        let rec loop acc toks =
          match toks with
          | Tid "esac" :: rest -> (List.rev acc, rest)
          | _ ->
              let cond, toks = p_imp toks in
              let toks =
                match toks with
                | Tcolon :: r -> r
                | _ -> raise (Error "expected : in case branch")
              in
              let rhs, toks = p_imp toks in
              let toks =
                match toks with
                | Tsemi :: r -> r
                | _ -> raise (Error "expected ; after case branch")
              in
              loop ((cond, rhs) :: acc) toks
        in
        loop [] rest
    | _ -> raise (Error "expected TRANS case ... esac")
  in
  let specs, toks =
    let rec loop acc = function
      | Tid "LTLSPEC" :: Tid "NAME" :: Tid spec_name :: Tassign :: rest ->
          let text, rest = ltl_until_semi rest in
          let phi =
            match Ltl.parse text with
            | Ok phi -> phi
            | Error msg -> raise (Error (Printf.sprintf "bad LTL %S: %s" text msg))
          in
          loop ((spec_name, phi) :: acc) rest
      | toks -> (List.rev acc, toks)
    in
    loop [] toks
  in
  if toks <> [] then raise (Error "trailing tokens after module");
  (* interpret *)
  let labels =
    Array.init n_states (fun s ->
        List.fold_left
          (fun acc (dname, e) ->
            if eval_expr ~defines ~state:s ~next:None e then Symbol.add dname acc
            else acc)
          Symbol.empty defines)
  in
  let succs =
    Array.init n_states (fun s ->
        (* NuSMV case: first branch whose condition holds *)
        let rhs =
          let rec first = function
            | [] -> None
            | (cond, rhs) :: rest ->
                if eval_expr ~defines ~state:s ~next:None cond then Some rhs
                else first rest
          in
          first branches
        in
        match rhs with
        | None -> []
        | Some rhs ->
            List.filter
              (fun j -> eval_expr ~defines ~state:s ~next:(Some j) rhs)
              (List.init n_states Fun.id))
  in
  let initial =
    List.filter
      (fun s -> eval_expr ~defines ~state:s ~next:None init_expr)
      (List.init n_states Fun.id)
  in
  { name; kripke = Kripke.make ~labels ~succs ~initial (); specs }

let parse input =
  match parse_module (lex input) with
  | m -> Ok m
  | exception Error msg -> Error msg

let parse_exn input =
  match parse input with
  | Ok m -> m
  | Error msg -> invalid_arg (Printf.sprintf "Smv_reader.parse_exn: %s" msg)
