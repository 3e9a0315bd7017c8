(** Resilient execution: detect, diagnose, remap, retry (extension).

    A controller in front of a defective crossbar.  It runs the compiled
    program against a reference on a set of test vectors; on a mismatch it
    diagnoses the faulty cell by differential replay (ideal simulation vs
    the real crossbar, first divergent written register), rewrites the
    program around the dead cell with {!Remap}, and tries again, a bounded
    number of times.  When repair fails — no spare cells, an undiagnosable
    (e.g. probabilistic) fault — the report still says which outputs can be
    trusted, so a partially broken array degrades gracefully instead of
    failing wholesale. *)

type env = {
  execute :
    ?trace:(int -> Isa.step -> bool array -> unit) ->
    Program.t ->
    bool array ->
    bool array;
}
(** The physical crossbar as the controller sees it: execute a program,
    optionally tracing post-step device states.  Defects travel with
    physical cell indices, so the same [env] stays valid as remapping moves
    the program onto fresh cells. *)

val env_of_defects : (Isa.reg * Device.defect) list -> env
(** Simulated hardware: an ideal {!Interp} crossbar with the given stuck
    cells. *)

type report = {
  ok : bool;  (** final program matches the reference on every vector *)
  attempts : int;  (** verification rounds run (1 = passed untouched) *)
  diagnosed : Isa.reg list;  (** cells diagnosed faulty, in discovery order *)
  moves : (Isa.reg * Isa.reg) list;  (** remappings applied *)
  program : Program.t;  (** the final, possibly rewritten program *)
  trusted : bool array;
      (** per output: did it match the reference on every vector?  All
          [true] when [ok]. *)
}

val diagnose : env -> Program.t -> bool array -> Isa.reg list
(** [diagnose env program vector] replays a failing vector on an ideal
    crossbar and on [env], returning the registers of the first divergent
    written step (the defective cells), or a divergent unwritten register
    as a fallback.  Empty when the traces agree everywhere. *)

val run :
  ?max_attempts:int ->
  ?placement:Placement.t ->
  ?remap:(Program.t -> bad:Isa.reg list -> (Remap.t, string) result) ->
  ?vectors:bool array list ->
  env ->
  Program.t ->
  reference:(bool array -> bool array) ->
  report
(** Run the detect → diagnose → remap → retry loop ([max_attempts]
    verification rounds, default 4).  [vectors] defaults to
    {!Verify.vectors} (exhaustive up to 12 inputs); [placement] bounds the
    spare cells available to {!Remap.remap}.

    [remap] is the repair policy, defaulting to [Remap.remap ?placement];
    pass e.g. a closure over {!Remap.remap_wear_aware} with a live wear
    snapshot to steer repairs toward low-wear cells.  The [bad] list a
    policy receives is cumulative — every cell diagnosed so far, not just
    this round's — so a policy choosing replacements from a free-cell pool
    must exclude all of them. *)
