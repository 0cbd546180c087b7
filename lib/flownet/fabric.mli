(** Flow-level network fabric with max–min fair bandwidth sharing.

    A fabric is a set of directed capacity-constrained links; a {e flow} is
    a bulk transfer routed over a list of links. Whenever the flow
    population changes (or a capacity changes), all flow rates are
    recomputed by progressive filling: repeatedly saturate the most
    contended link, freeze its flows at the fair share, and continue with
    the residual capacities. Between changes rates are constant, so flow
    completions are exact events.

    This models both MPI traffic and migration traffic sharing the same
    interconnect, which is where the paper's congestion effects (e.g.
    migration time growth under load) come from. Propagation latency is
    deliberately not modelled here — callers account for per-message
    latency separately, since it is protocol-specific. *)

type t

type link

type flow

type solver =
  | Incremental
      (** Re-run progressive filling only over the affected bottleneck set
          — the connected component (flows linked by shared links) touched
          by a join/leave/capacity change. Produces rates identical to
          [Global] (components are independent; see DESIGN), at cost
          proportional to the component instead of the fabric. *)
  | Global  (** Reference implementation: full re-solve on every change. *)

val create : ?solver:solver -> Ninja_engine.Sim.t -> t
(** Default solver is [Incremental]; pass [~solver:Global] to run the
    reference implementation (differential tests race the two). *)

val solver : t -> solver

val last_bottlenecks : t -> int list
(** Link ids frozen by the most recent re-rate, in freeze order — the
    solve's deterministic tie-break trace, exposed for tests. Under
    [Incremental] it covers only the re-solved component. *)

val add_link : t -> name:string -> capacity:float -> link
(** [capacity] in bytes per second; must be positive. *)

val hop : t -> name:string -> capacity:float -> link
(** A private first hop (a migration sender, a guest NIC queue) placed in
    front of a route. It takes its id from the same counter as
    {!add_link}, so ids and the solver's tie-breaks do not depend on
    whether a link is a hop, but {!links} does not list it: a hop lives
    only as long as the routes that hold it. *)

val links : t -> link list
(** The {!add_link} links, in creation order — the topology, without
    {!hop}s. *)

val overload : t -> (Ninja_engine.Time.t * string) option
(** Flow conservation, checked at every re-solve over the re-solved
    links: the first time the rates the solver set on a link summed to
    more than [capacity * (1 + 1e-6) + 1] B/s, with the sim time of that
    solve and a description of the link and its load. [None] while every
    solve has conserved flow. Only the first excess is kept. *)

val link_name : link -> string

val link_id : link -> int
(** Unique within a fabric; stable for the link's lifetime. Useful as a
    hash/set key when reasoning about route overlap. *)

val link_capacity : link -> float

val set_link_capacity : t -> link -> float -> unit
(** Takes effect immediately; in-flight flows are re-rated. *)

val start : t -> route:link list -> bytes:float -> flow
(** Begin a transfer (non-blocking). The route must be non-empty and free
    of duplicate links. [bytes] must be non-negative. *)

val await : flow -> unit
(** Block the calling fiber until the flow completes (or is cancelled). *)

val transfer : t -> route:link list -> bytes:float -> unit
(** [start] followed by [await]. *)

val cancel : t -> flow -> unit

val rate : flow -> float
(** Current rate in bytes per second (0 before the first re-rate). *)

val is_done : flow -> bool

val active_flows : t -> int

val link_utilization : t -> link -> float
(** Sum of the current rates of flows crossing the link, in bytes/s. *)
