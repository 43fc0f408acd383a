"""Design and verification toolkit for hybrid freeform/metasurface lenses.

A lens occupies the slab between a freeform lower face (the graph
``x3 = rho(x)``) and a flat metasurface on ``{x3 = a}`` carrying a
phase discontinuity.  The package solves the inverse imaging problem
(prescribe a target map, recover the lower face and phase), evaluates the
closed-form second-order data at the anchor point, checks the existence
and sufficiency conditions, and verifies designs by independent ray
tracing.
"""
