(** The one JSON writer behind every machine-readable output: simulate,
    timeline and profile reports, lint diagnostics, traces and metrics.

    Layout is fixed so outputs compare byte for byte: [", "] between
    members and elements, [": "] after keys, no newlines.  Numbers have
    one format: an integral float below [1e15] in magnitude prints
    without a decimal point ([%.0f]), every other float with six
    decimals ([%.6f]).  Strings escape the double quote, backslash,
    newline, tab and carriage return by name and other control
    characters as [\u00XX]; all other bytes pass through. *)

type t =
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members in the given order *)

val to_buffer : Buffer.t -> t -> unit
(** Append the serialized value. *)

val to_string : t -> string
