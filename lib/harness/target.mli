(** Command-line targets: the one place that turns a target string — a
    suite benchmark name or a [.ppl] path — and its [--sizes]/[--tiles]
    bindings into a program plus validated bindings.  Every rejection
    is an [Error] holding the one-line message the CLI prints before it
    exits 2. *)

type t = {
  name : string;  (** the benchmark name, or the file's base name *)
  prog : Ir.program;  (** the source program, before tiling *)
  bench : Suite.bench option;  (** [Some] when the target is a benchmark *)
  tiles : (Sym.t * int) list;  (** a benchmark's own tiles, or [--tiles] *)
  sizes : (Sym.t * int) list;
      (** a benchmark's simulation sizes overridden by [--sizes], or
          [--sizes] alone for a file *)
}

val bench : string -> (Suite.bench, string) result
(** A suite benchmark by name; otherwise
    [unknown benchmark "X" (try: ...)], listing the suite. *)

val resolve :
  cmd:string ->
  ?files_only:bool ->
  ?need_sizes:bool ->
  ?tiles:(string * int) list ->
  ?sizes:(string * int) list ->
  string ->
  (t, string) result
(** [resolve ~cmd target] reads [target] as a [.ppl] file when that path
    exists (or always, with [~files_only]), else as a benchmark name;
    neither is [unknown benchmark or file "X" (try: ...)].  A file that
    cannot be read, parsed or type-checked is [FILE: message].

    Bindings name size parameters by base name.  An unknown name, a
    value <= 0 or a value above the parameter's declared [maxsize] is
    rejected as [CMD: FLAG NAME=N: why].  [--tiles] applies to files
    only (a benchmark brings its own tiles), and [~need_sizes] rejects a
    file target without [--sizes].  Files bind [--sizes] before
    [--tiles]; the first rejection is the one reported. *)
