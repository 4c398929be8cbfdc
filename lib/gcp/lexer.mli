(** Tokenizer for the GCP language. Comments run from [#] or [//] to
    end of line. *)

type token =
  | INT of int
  | IDENT of string
  | KW of string  (** keywords: protocol, var, action, legitimate, ... *)
  | SYM of string  (** punctuation and operators: [::], [->], [:=], ... *)
  | EOF

type lexeme = { token : token; pos : Ast.position }

exception Error of string * Ast.position

val tokenize : string -> lexeme list
(** Raises [Error] on unrecognized input. *)
