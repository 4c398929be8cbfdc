(** Declarative experiment campaigns: matrices of analysis cells.

    The paper's comparison of weak / self / probabilistic stabilization
    is a matrix of point checks — (protocol × topology × daemon × fault
    plan × analysis mode). A campaign file declares that matrix once;
    {!Runner} executes it shard-by-shard with timeouts, retries and
    crash-resumable checkpoints.

    The file format is JSON (parsed with {!Stabobs.Json}):

    {v
    {
      "name": "smoke",
      "seed": 42,
      "timeout_ms": 5000,
      "retries": 2,
      "backoff_ms": 100,
      "runs": 400, "max_steps": 200000, "max_configs": 2000000,
      "matrix": {
        "protocol": ["token-ring", "dijkstra-3state"],
        "topology": ["ring:5", "ring:6"],
        "sched": ["central", "distributed"],
        "analysis": ["check", "markov", "montecarlo"],
        "faults": ["none", "periodic:50:1"],
        "transformed": [false]
      },
      "cells": [ { "protocol": "herman", "topology": "ring:5",
                   "sched": "synchronous", "analysis": "montecarlo" } ]
    }
    v}

    Every key except ["matrix"]/["cells"] has a default; the matrix is
    the cross product of its axes (in the order protocol, topology,
    sched, analysis, faults, transformed), and explicit ["cells"]
    entries are appended after it. Fault plans only make sense for
    simulation, so matrix combinations pairing a non-["none"] fault
    plan with a non-["montecarlo"] analysis are dropped rather than
    generated. See [docs/campaigns.md]. *)

type analysis = Check | Markov | Montecarlo

type faults = Stabexp.Query.faults =
  | No_faults
  | Periodic of { gap : int; faults : int }
  | Bernoulli of { rate : float; faults : int }
  | Burst of { at : int list; faults : int }

type cell = {
  protocol : string;  (** a {!Stabexp.Registry} name *)
  topology : string;  (** e.g. ["ring:5"] *)
  transformed : bool;  (** pass through the Section 4 transformer *)
  sched : Stabcore.Statespace.sched_class;
  analysis : analysis;
  faults : faults;  (** applied during Monte-Carlo runs only *)
  runs : int;  (** Monte-Carlo sample count *)
  max_steps : int;  (** Monte-Carlo per-run step budget *)
  max_configs : int;  (** exact-analysis configuration budget *)
}

type t = {
  name : string;
  seed : int;  (** campaign seed; per-cell seeds derive from it *)
  timeout_ms : int option;  (** per-cell wall-clock budget *)
  retries : int;  (** transient-failure retry budget per cell *)
  backoff_ms : int;  (** base of the exponential backoff *)
  cells : cell list;
}

val of_json : Stabobs.Json.t -> (t, string) result
(** Parse a campaign. Every cell's protocol and topology are checked
    here by building the instance ({!Stabexp.Registry.find}): an
    unknown protocol or a malformed topology is an [Error] naming the
    cell, not a failure at run time. Cells built directly as records
    skip this check; the runner then treats a bad instance as a
    crashing cell. *)

val load : string -> (t, string) result
(** Read and parse a campaign file. *)


val cell_hash : cell -> string
(** Content hash: hex digest of the cell spec rendered as compact,
    canonical (fixed key order) JSON. Checkpoint records are keyed by
    this, so editing a cell's spec in any way invalidates its
    checkpoint entry while leaving every other cell's intact. *)

val cell_label : cell -> string
(** Human-readable cell identifier, e.g.
    ["token-ring(ring:5)/central/check"]. *)

val cell_seed : t -> cell -> int
(** The cell's RNG seed: campaign seed mixed with the cell hash. A
    function of content only — not of position, shard or execution
    order — so resumed and uninterrupted runs of the same campaign
    produce identical per-cell results. *)

val query : t -> cell -> Stabexp.Query.t
(** The cell as an analysis request: its instance, class and budgets,
    seeded with {!cell_seed}, sampling under the class's randomized
    daemon with the cell's fault plan. *)
