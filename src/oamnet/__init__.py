"""Single-photon networks routed by orbital angular momentum.

The package simulates linear-optical networks in which a photon's integer
winding number doubles as the network control channel: a Fourier-type
multiport sandwiching a Dove prism stage sorts photons to output ports by
winding, and holograms retarget them.  On top of that device sit a compact
multiplexer/demultiplexer, two self-routing topologies, and entanglement
distribution scenarios, all checked exhaustively at desk scale.
"""

from .elements import (
    BeamSplitter,
    Direction,
    DovePrism,
    Element,
    Hologram,
    Mirror,
    PhaseShifter,
    ReflectiveHologram,
    beamsplitter_block,
)
from .errors import (
    BunchingError,
    DecompositionError,
    DomainError,
    NormalizationError,
    OamNetError,
    RoutingDomainError,
    WindowOverflowError,
)
from .multiport import (
    CompositeDevice,
    DoveStage,
    SymmetricMultiport,
    default_oam_values,
    device_basis,
    device_matrix,
    global_phase_error,
    is_generalized_permutation,
    oambs,
    oambs_closed_form,
    sbmao,
    symmetric_matrix,
)
from .netlist import (
    Netlist,
    dove_stage_elements,
    netlist_apply,
    netlist_path_matrix,
    oambs_netlist,
    oambs_netlist_error,
    path_replay_error,
    random_unitary,
    reck_decompose,
    symmetric_netlist,
)
from .networks import (
    HologramBank,
    MuxNetwork,
    ReflectorBank,
    ReportRow,
    RoutingReport,
    SimpleRoutingNetwork,
    StarNetwork,
    bell_target,
    choose_winding_simple,
    delivered_star_oam,
    demux_receive,
    distribute_bell_pair,
    mux_transmit,
    routing_report,
    sender_tag,
    star_deliver,
    superposed_destination,
)
from .states import (
    EnsembleState,
    H,
    ModeLabel,
    ModeSpace,
    PhotonState,
    Polarization,
    QubitSpec,
    V,
    apply_mode_map,
    fidelity,
    make_qubit_photon,
    path_probabilities,
    tensor,
)

__version__ = "0.1.0"
