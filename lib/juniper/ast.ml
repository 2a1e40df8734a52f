open Netcore

type node = {
  keywords : string list;
  children : node list option;
  line : int;
}

(* ------------------------------------------------------------------ *)
(* Tokenizer                                                           *)
(* ------------------------------------------------------------------ *)

type token = Word of string | Lbrace | Rbrace | Semi | Lbracket | Rbracket

let tokenize text =
  let toks = ref [] and diags = ref [] in
  let line = ref 1 in
  let n = String.length text in
  let buf = Buffer.create 16 in
  let flush_word () =
    if Buffer.length buf > 0 then (
      toks := (Word (Buffer.contents buf), !line) :: !toks;
      Buffer.clear buf)
  in
  let rec go i in_comment =
    if i >= n then flush_word ()
    else
      let c = text.[i] in
      if c = '\n' then (
        if not in_comment then flush_word ();
        incr line;
        go (i + 1) false)
      else if in_comment then go (i + 1) true
      else
        match c with
        | '#' ->
            flush_word ();
            go (i + 1) true
        | ' ' | '\t' | '\r' ->
            flush_word ();
            go (i + 1) false
        | '{' ->
            flush_word ();
            toks := (Lbrace, !line) :: !toks;
            go (i + 1) false
        | '}' ->
            flush_word ();
            toks := (Rbrace, !line) :: !toks;
            go (i + 1) false
        | ';' ->
            flush_word ();
            toks := (Semi, !line) :: !toks;
            go (i + 1) false
        | '[' ->
            flush_word ();
            toks := (Lbracket, !line) :: !toks;
            go (i + 1) false
        | ']' ->
            flush_word ();
            toks := (Rbracket, !line) :: !toks;
            go (i + 1) false
        | '"' ->
            flush_word ();
            (* Quoted string: consumed verbatim (without the quotes). *)
            let rec str j =
              if j >= n then (
                diags := Diag.error ~line:!line "unterminated string" :: !diags;
                j)
              else if text.[j] = '"' then (
                toks := (Word (Buffer.contents buf), !line) :: !toks;
                Buffer.clear buf;
                j + 1)
              else (
                if text.[j] = '\n' then incr line;
                Buffer.add_char buf text.[j];
                str (j + 1))
            in
            go (str (i + 1)) false
        | c ->
            Buffer.add_char buf c;
            go (i + 1) false
  in
  go 0 false;
  (List.rev !toks, List.rev !diags)

(* ------------------------------------------------------------------ *)
(* Tree builder                                                        *)
(* ------------------------------------------------------------------ *)

let parse text =
  let toks, tok_diags = tokenize text in
  let diags = ref tok_diags in
  let err line fmt =
    Printf.ksprintf (fun s -> diags := !diags @ [ Diag.error ~line s ]) fmt
  in
  (* [stmts] parses a statement list until Rbrace or end of input, returning
     the nodes and the remaining tokens (with the closing Rbrace consumed by
     the caller's recursion). *)
  let rec stmts ~top acc toks =
    match toks with
    | [] ->
        if not top then err 0 "unbalanced braces: missing '}'";
        (List.rev acc, [])
    | (Rbrace, _) :: rest -> (List.rev acc, rest)
    | (Semi, line) :: rest ->
        err line "stray ';'";
        stmts ~top acc rest
    | (Lbrace, line) :: rest ->
        err line "block without a keyword";
        let _, rest = stmts ~top:false [] rest in
        stmts ~top acc rest
    | ((Word _ | Lbracket | Rbracket), line) :: _ ->
        let rec words ws toks =
          match toks with
          | (Word w, _) :: rest -> words (w :: ws) rest
          | (Lbracket, _) :: rest -> words ws rest
          | (Rbracket, _) :: rest -> words ws rest
          | rest -> (List.rev ws, rest)
        in
        let ws, rest = words [] toks in
        (match rest with
        | (Semi, _) :: rest ->
            stmts ~top ({ keywords = ws; children = None; line } :: acc) rest
        | (Lbrace, _) :: rest ->
            let kids, rest = stmts ~top:false [] rest in
            stmts ~top ({ keywords = ws; children = Some kids; line } :: acc) rest
        | (Rbrace, _) :: _ | [] ->
            err line "statement '%s' not terminated by ';' or a block"
              (String.concat " " ws);
            stmts ~top ({ keywords = ws; children = None; line } :: acc) rest
        | ((Word _ | Lbracket | Rbracket), _) :: _ ->
            (* unreachable: [words] consumed all leading words/brackets *)
            stmts ~top acc rest)
  in
  let nodes, leftover = stmts ~top:true [] toks in
  (match leftover with
  | [] -> ()
  | _ -> err 0 "unbalanced braces: extra '}'");
  (nodes, !diags)

let children n = Option.value ~default:[] n.children
