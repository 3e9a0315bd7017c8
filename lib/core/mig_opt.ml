(* The paper's Algs. 1–4 (and the Boolean extension), as thin wrappers over
   the Flow pass manager: each entry point parses its canonical flow script
   (see Mig_flows.canonical_script) and runs it under its legacy
   observability name.  The convergence loop, per-cycle cleanup, trajectory
   sampling and span structure all live in the generic Flow engine now. *)

let default_effort = Flow.default_effort

type algorithm =
  | Area
  | Depth
  | Rram_costs of Rram_cost.realization
  | Steps
  | Boolean  (** extension: area + cut-based Boolean rewriting *)

let algorithms = [ Area; Depth; Rram_costs Rram_cost.Imp; Rram_costs Rram_cost.Maj; Steps; Boolean ]

let algorithm_name = function
  | Area -> "area"
  | Depth -> "depth"
  | Rram_costs Rram_cost.Imp -> "rram-costs-imp"
  | Rram_costs Rram_cost.Maj -> "rram-costs-maj"
  | Steps -> "steps"
  | Boolean -> "bool-rewrite"

let run ?effort alg mig =
  let name = algorithm_name alg in
  match Mig_flows.canonical_script ?effort name with
  | Some script -> Mig_flows.run ~name (Mig_flows.parse_exn script) mig
  | None -> invalid_arg ("Mig_opt: unknown canonical flow " ^ name)

let area ?effort mig = run ?effort Area mig
let depth ?effort mig = run ?effort Depth mig
let rram_costs ?effort realization mig = run ?effort (Rram_costs realization) mig
let steps ?effort mig = run ?effort Steps mig
let boolean ?effort mig = run ?effort Boolean mig
