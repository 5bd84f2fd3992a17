(** Event-level simulation of a hardware design.

    Where {!Simulate} composes closed-form cycle counts, this engine
    schedules every controller {e instance} (each loop iteration of each
    stage) on a virtual timeline with two structural constraints the
    analytic model only approximates:

    - {b double buffering}: stage [s] of metapipeline iteration [i] starts
      only once stage [s-1] has finished iteration [i] {e and} stage [s]
      itself has finished iteration [i-1];
    - {b DRAM serialization}: all tile load/store units and direct-access
      streams contend for one memory interface, granted in request order.

    Agreement between the two engines (checked in the test suite) validates
    the analytic metapipeline formula [fill + (trips-1) * max(slowest
    stage, sum of memory stages)] that Fig. 7 rests on.

    Designs whose loop structure exceeds {!val:max_events} controller
    instances fall back to the analytic engine for the offending subtree
    (reported in {!result}); none of the paper's designs do.

    The DRAM calendar keeps at most {!Calendar.max_spans} (2048) busy
    spans.  Past that, the oldest half is coalesced into one busy span,
    idle gaps included.  This is a pessimistic approximation: a later
    request that would have back-filled one of those gaps must queue
    after the block instead.  It fires on designs with many short
    transfers, e.g. [+tiling] outerprod at simulation sizes, [+tiling]
    gemm at twice those sizes, or conv2d at tiles 16×16 and par 4.

    Cost: {!run} compiles the design once for its sizes and machine
    (trip counts, compute cycles, per-access DRAM cycles and words, the
    event-budget decision).  Each scheduled instance then costs a binary
    search over the calendar plus work on the few spans the request
    touches, so the time per event stays flat (0.1–0.3 µs on a 2-vCPU
    x86 host) however long the calendar grows. *)

(** {1 Timeline}

    With [~record:true], {!run} additionally captures its virtual
    schedule as a Gantt timeline: one track per metapipeline stage
    (track [loop.stage], one span per iteration instance), one track
    per top-level controller, and the DRAM busy calendar.  The timeline
    is a pure function of (machine, sizes, design) — bit-identical
    across runs — and is what [ppl-fpga timeline] and [--trace] export
    as Perfetto JSON (see {!Sim_trace}). *)

type span = {
  sp_track : string;  (** e.g. ["loop_3.stage_load_4"] *)
  sp_name : string;  (** instance label, e.g. ["stage_load_4#17"] *)
  sp_start : float;  (** virtual cycles *)
  sp_finish : float;
  sp_args : (string * float) list;  (** e.g. the iteration index *)
}

type timeline = {
  tl_spans : span list;  (** in schedule order; per-track starts ascend *)
  tl_dram_busy : (float * float) list;  (** merged DRAM busy intervals *)
  tl_makespan : float;  (** = [report.cycles] *)
}

type track_stats = {
  tk_track : string;
  tk_spans : int;
  tk_busy : float;  (** summed span cycles on the track *)
  tk_first : float;
  tk_last : float;
}

val track_stats : timeline -> track_stats list
(** Per-track occupancy (including the synthetic [DRAM] track), sorted
    by track name.  Utilization is [tk_busy /. tl_makespan]; stall is
    [(tk_last -. tk_first) -. tk_busy]. *)

type result = {
  report : Simulate.report;
  events : int;  (** controller instances scheduled *)
  fallbacks : int;  (** subtrees beyond the event budget, analytic *)
  timeline : timeline option;  (** present iff [~record:true] *)
}

val max_events : int

(** {1 The DRAM calendar}

    The memory interface's busy spans, exposed for unit tests. *)

module Calendar : sig
  type t

  val max_spans : int
  (** [2048]: past this many spans the oldest half is coalesced into one
      busy span (see the header).  The coalescing runs after each
      {!transfer}. *)

  val create : unit -> t
  (** An idle interface. *)

  val transfer : t -> float -> float -> float
  (** [transfer c t dur] books [dur] cycles of DRAM time, consuming the
      idle gaps at or after [max t 0] in time order, and returns the
      completion time ([t] itself when [dur <= 0]). *)

  val spans : t -> (float * float) list
  (** Busy spans, sorted and disjoint. *)
end

val run :
  ?machine:Machine.t ->
  ?record:bool ->
  Hw.design ->
  sizes:(Sym.t * int) list ->
  result
