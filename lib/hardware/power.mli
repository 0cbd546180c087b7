(** Node power model and energy metering.

    The paper's future work (§VII) proposes "intelligent VM placement in a
    data center consist[ing] of heterogeneous racks for power saving" —
    consolidation frees hosts that can then sleep. This module provides
    the accounting: a linear server power model (idle + dynamic·CPU
    utilisation, the standard first-order model for this class of blade)
    and a meter that integrates per-node energy over simulated time, with
    hosts at zero utilisation charged sleep power. *)

open Ninja_engine

type model = {
  sleep_watts : float;  (** suspended / powered-down host *)
  idle_watts : float;  (** powered on, 0% CPU *)
  dynamic_watts : float;  (** additional draw at 100% CPU *)
}

val m610 : model
(** A PowerEdge M610-class blade: ~15 W asleep, ~160 W idle, +110 W at
    full load. *)

type meter

val measure :
  Sim.t ->
  ?model:model ->
  ?interval:Time.span ->
  ?awake:(Node.t -> bool) ->
  until:(unit -> Time.t option) ->
  Node.t list ->
  meter
(** Sample every [interval] (default 1 s), integrating each node's power
    draw, until the metered job ends: [until ()] returns the job's
    completion time once it has finished ([None] while it runs). Exactly
    the ticks at or before that time count; the meter stops at the first
    later tick, so a job that never finishes keeps the simulation alive. [awake] decides whether a host is
    powered at all — the consolidation policy can only power off hosts
    with no resident VMs, so callers typically pass "hosts a VM"; the
    default treats any host with non-zero CPU utilisation as awake. *)

val energy_joules : meter -> float
(** Total energy across all metered nodes so far. *)

val per_node_joules : meter -> (Node.t * float) list

val samples : meter -> int
