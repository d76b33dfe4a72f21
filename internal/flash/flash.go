// Package flash models the FLASH/MAGIC protocol-programming
// environment the checkers reason about: the macro vocabulary of the
// protocol code, handler classification, the four virtual network
// lanes, and the paper's published per-protocol results (as
// machine-readable expectations for the reproduction harness).
//
// The real FLASH sources are proprietary; package flashgen synthesizes
// protocol corpora against this vocabulary (see DESIGN.md §2 for the
// substitution argument).
package flash

// Protocol names in the order the paper's tables list them.
var ProtocolNames = []string{"bitvector", "dyn_ptr", "sci", "coma", "rac", "common"}

// Macro names of the FLASH programming environment. The checkers and
// the corpus generator share this vocabulary.
const (
	// Data-buffer synchronization (paper §4).
	MacroWaitForDBFull = "WAIT_FOR_DB_FULL"
	MacroMiscbusReadDB = "MISCBUS_READ_DB"

	// Message sends (paper §5). PI = processor interface, IO = I/O
	// subsystem, NI = network interface (request and reply lanes).
	MacroPISend     = "PI_SEND"
	MacroIOSend     = "IO_SEND"
	MacroNISend     = "NI_SEND"
	MacroNISendRply = "NI_SEND_RPLY"

	// Message-length constants (declared as extern const variables,
	// the paper's §11 workaround for constant folding).
	ConstLenNoData    = "LEN_NODATA"
	ConstLenWord      = "LEN_WORD"
	ConstLenCacheline = "LEN_CACHELINE"
	ConstFData        = "F_DATA"
	ConstFNoData      = "F_NODATA"

	// Buffer management (paper §6).
	MacroAllocDB        = "ALLOC_DB"
	MacroFreeDB         = "DEC_DB_REF"
	MacroIncDB          = "INC_DB_REF"
	MacroBufferError    = "BUFFER_ERROR"
	AnnotHasBuffer      = "has_buffer"
	AnnotNoFreeNeeded   = "no_free_needed"
	MacroHandlerGlobals = "HANDLER_GLOBALS"

	// Lane management (paper §7).
	MacroWaitForSpace = "WAIT_FOR_SPACE"

	// Send-wait pairing (paper §9).
	MacroWaitPIReply = "WAIT_FOR_PI_REPLY"
	MacroWaitIOReply = "WAIT_FOR_IO_REPLY"

	// Directory management (paper §9).
	MacroDirLoad      = "DIR_LOAD"
	MacroDirWriteback = "DIR_WRITEBACK"
	MacroDirSetState  = "DIR_SET_STATE"
	MacroDirSetVector = "DIR_SET_VECTOR"
	MacroDirRead      = "DIR_READ_STATE"
	ConstNakReply     = "MSG_NAK"

	// Execution restrictions (paper §8).
	MacroHandlerDefs     = "HANDLER_DEFS"
	MacroHandlerPrologue = "HANDLER_PROLOGUE"
	MacroSubrPrologue    = "SUBROUTINE_PROLOGUE"
	MacroSetStackPtr     = "SET_STACKPTR"
	MacroNoStackDecl     = "NO_STACK_DECL"
	MacroDeprecatedOp    = "OLD_MISCBUS_READ" // deprecated legacy macro
)

// NumLanes is the number of virtual network lanes (paper §7).
const NumLanes = 4

// LaneVector is a per-lane send count.
type LaneVector [NumLanes]int

// Add returns v with lane incremented.
func (v LaneVector) Add(lane int) LaneVector {
	v[lane]++
	return v
}

// Max returns the component-wise maximum of two vectors.
func (v LaneVector) Max(o LaneVector) LaneVector {
	for i := range v {
		if o[i] > v[i] {
			v[i] = o[i]
		}
	}
	return v
}

// LaneOfSend maps a send macro name to the lane it transmits on, or -1
// for non-send names. The mapping is the protocol convention used by
// the synthetic corpus: processor-interface sends use lane 0, I/O
// sends lane 1, network requests lane 2, network replies lane 3.
func LaneOfSend(macro string) int {
	switch macro {
	case MacroPISend:
		return 0
	case MacroIOSend:
		return 1
	case MacroNISend:
		return 2
	case MacroNISendRply:
		return 3
	}
	return -1
}

// SendMacros lists all message-send macro names.
var SendMacros = []string{MacroPISend, MacroIOSend, MacroNISend, MacroNISendRply}

// HandlerKind classifies protocol routines (paper §6: hardware
// handlers start owning a data buffer, software handlers start
// without one; everything else is a subroutine).
type HandlerKind int

// Handler kinds.
const (
	Subroutine HandlerKind = iota
	HardwareHandler
	SoftwareHandler
)

func (k HandlerKind) String() string {
	switch k {
	case HardwareHandler:
		return "hardware handler"
	case SoftwareHandler:
		return "software handler"
	}
	return "subroutine"
}

// ClassifyName implements the corpus naming convention: hardware
// handlers are named h_<...>, software handlers sw_<...>. The real
// FLASH build extracted the hardware list from the protocol
// specification; the spec-driven path is Spec.Classify.
func ClassifyName(fn string) HandlerKind {
	switch {
	case len(fn) > 2 && fn[:2] == "h_":
		return HardwareHandler
	case len(fn) > 3 && fn[:3] == "sw_":
		return SoftwareHandler
	}
	return Subroutine
}

// ConventionSpec derives a protocol spec from the h_*/sw_* naming
// convention (ClassifyName), for checking code without an explicit
// specification. Handlers keep their order in names; a name listed
// twice (a handler defined twice) is listed once, as the lane pass's
// link keeps the first definition and reports the second.
func ConventionSpec(names []string) *Spec {
	spec := &Spec{
		Protocol:        "cli",
		Allowance:       map[string]LaneVector{},
		NoStack:         map[string]bool{},
		BufferFreeFns:   map[string]bool{},
		BufferUseFns:    map[string]bool{},
		CondFreeFns:     map[string]bool{},
		DirWritebackFns: map[string]bool{},
	}
	seen := map[string]bool{}
	for _, fn := range names {
		if seen[fn] {
			continue
		}
		seen[fn] = true
		switch ClassifyName(fn) {
		case HardwareHandler:
			spec.Hardware = append(spec.Hardware, fn)
		case SoftwareHandler:
			spec.Software = append(spec.Software, fn)
		}
	}
	return spec
}

// Spec is the protocol specification a FLASH protocol designer
// supplies: the handler inventory and per-handler lane allowances
// (paper §7: "a protocol-writer supplied list of each handler's lane
// allowances").
type Spec struct {
	Protocol string
	// Hardware and Software list handler names.
	Hardware []string
	Software []string
	// Allowance gives each handler's per-lane send quota.
	Allowance map[string]LaneVector
	// NoStack lists handlers that assert they run without a stack.
	NoStack map[string]bool
	// BufferFreeFns lists subroutines that consume (free) the current
	// buffer; BufferUseFns lists subroutines that require a live
	// buffer (paper §6's two tables).
	BufferFreeFns map[string]bool
	BufferUseFns  map[string]bool
	// CondFreeFns lists subroutines returning 1 when they freed the
	// buffer and 0 otherwise (paper §6's value-sensitivity list).
	CondFreeFns map[string]bool
	// DirWritebackFns lists subroutines that write back the directory
	// entry on behalf of their caller (paper §9).
	DirWritebackFns map[string]bool
}

// Classify returns fn's kind under this spec, falling back to the
// naming convention for routines the spec does not mention.
func (s *Spec) Classify(fn string) HandlerKind {
	for _, h := range s.Hardware {
		if h == fn {
			return HardwareHandler
		}
	}
	for _, h := range s.Software {
		if h == fn {
			return SoftwareHandler
		}
	}
	return ClassifyName(fn)
}
