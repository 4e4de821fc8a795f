(** Minimal JSON values: printing and strict parsing.

    Just enough for the telemetry files written by {!Dpoaf_exec.Trace} and
    read back by [dpoaf_cli report] — objects, arrays, strings, doubles —
    without an external dependency.  Numbers are represented as [float]
    (like every mainstream JSON library); [NaN]/[infinity] print as
    [null]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering with proper string escaping: {!write}
    into a fresh buffer. *)

(** {1 Writer} — appends straight into a [Buffer], so a codec with a fixed
    record shape can emit it field by field without building a [t].  Each
    function writes the same bytes as {!write} of the matching value. *)

val write : Buffer.t -> t -> unit

val write_string : Buffer.t -> string -> unit
(** A quoted string.  Quote, backslash, newline, carriage return and tab
    get their two-character escapes, other control bytes [\u00XX]; every
    other byte, UTF-8 included, is copied as is. *)

val write_float : Buffer.t -> float -> unit
(** [NaN] and infinities as [null]; an integral value below [1e15] in
    magnitude as its digits ([-0] for negative zero); anything else as
    [%.15g] when that reads back as the same float, else [%.17g]. *)

val write_int : Buffer.t -> int -> unit
(** The bytes of [write_float (float_of_int n)], digits written directly. *)

val write_bool : Buffer.t -> bool -> unit

val write_key : Buffer.t -> string -> unit
(** [,"key":] inside an open object, without the comma before its first
    member.  The object's braces are the caller's. *)

val write_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
(** An array whose elements are written by the given function. *)

val parse : string -> (t, string) result
(** Strict parse of one JSON document (no trailing garbage).  A number
    that overflows a float is an error, so a parsed [t] holds only finite
    numbers. *)

val parse_exn : string -> t
(** @raise Bad on malformed input. *)

exception Bad of string

(** {1 Accessors} — shallow, [None] on shape mismatch. *)

val member : string -> t -> t option
val to_float : t -> float option
val to_str : t -> string option
val to_list : t -> t list option

val is_int : float -> bool
(** Integral and within 2^53 of zero, so [int_of_float] reads it exactly:
    what a strict decoder accepts for an integer field. *)

(** {1 Constructors} — aliases that read well at call sites. *)

val obj : (string * t) list -> t
val str : string -> t
val num : float -> t
val arr : t list -> t
