(** Fixed-width table rendering for experiment reports. *)

type t
(** A table under construction. *)

val create : title:string -> columns:string list -> t
(** Column headers fix the column count; rows must match it. *)

val add_row : t -> string list -> unit
(** Raises [Invalid_argument] on column-count mismatch. *)

val render : t -> string
(** The title, a header line, a separator and the rows, columns padded
    to their widest cell. *)

val print : t -> unit
(** [render] to stdout, followed by a blank line. *)

val to_markdown : t -> string
(** GitHub-flavored markdown: an [###] title heading, a header row and
    one table row per added row, pipes escaped — pastes cleanly into a
    PR description. *)

(** {1 Cell formatting helpers} *)

val cell_int : int -> string
val cell_float : ?decimals:int -> float -> string
val cell_bool : bool -> string
(** ["yes"] / ["no"]. *)
