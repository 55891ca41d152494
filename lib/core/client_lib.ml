type t = {
  id : int;
  home_site : Sim.Topology.site;
  preferred_dc : int;
  mutable current_dc : int;
  mutable label : Label.t option;
  mutable ops : int;
}

let create ~id ~home_site ~preferred_dc =
  { id; home_site; preferred_dc; current_dc = preferred_dc; label = None; ops = 0 }

let home_site t = t.home_site
let preferred_dc t = t.preferred_dc
let current_dc t = t.current_dc
let set_current_dc t dc = t.current_dc <- dc
let causal_past t = t.label

let observe t label =
  match t.label with
  | None -> t.label <- Some label
  | Some current -> if Label.compare label current > 0 then t.label <- Some label

