/**
 * @file
 * NetworkDef: the frontend IR for whole networks.
 *
 * A NetworkDef is an ordered list of conv-like layers — dense conv,
 * depthwise/grouped conv, and matmul-as-1x1-conv — with an explicit
 * batch size. Every layer records its *resolved* input tensor shape
 * (channels + spatial), so the IR is self-contained: lowering a layer
 * to a ConvProblem needs no propagation context, residual branches
 * (whose input is not the previous layer's output) are expressible,
 * and the IR round-trips losslessly through JSON for the RPC
 * protocol's inline-network payload.
 *
 * Shape propagation happens at construction time instead: the builder
 * methods (conv/branchConv/pool) carry a cursor — the current
 * tensor shape — forward through the network, which is also how the
 * darknet .cfg parser (cfg_parser.hh) drives this type.
 */

#ifndef MOPT_FRONTEND_NETWORK_DEF_HH
#define MOPT_FRONTEND_NETWORK_DEF_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "conv/problem.hh"

namespace mopt {

/** What a layer *is*; all three lower to a ConvProblem. */
enum class LayerKind { Conv, Depthwise, Matmul };

/** Stable wire name ("conv", "depthwise", "matmul"). */
const char *layerKindName(LayerKind k);

/** Inverse of layerKindName; returns false on an unknown name. */
bool layerKindFromName(const std::string &name, LayerKind &out);

/** One conv-like layer with its resolved input shape. */
struct LayerDef
{
    std::string name;                 //!< Layer label (e.g. "conv1").
    LayerKind kind = LayerKind::Conv; //!< Provenance; see enum.
    std::int64_t filters = 1;         //!< Output channels (K).
    std::int64_t in_c = 1;            //!< Input channels (C).
    std::int64_t in_h = 1;            //!< Input height (pre-padding).
    std::int64_t in_w = 1;            //!< Input width (pre-padding).
    std::int64_t size = 1;            //!< Kernel height == width.
    int stride = 1;                   //!< Spatial stride.
    int dilation = 1;                 //!< Kernel dilation.
    std::int64_t groups = 1;          //!< Channel groups.
    int pad = 0;                      //!< Zero padding per border.

    /** Effective kernel extent: (size-1)*dilation + 1. */
    std::int64_t effSize() const { return (size - 1) * dilation + 1; }

    /** "Same"-style padding for this kernel: (effSize()-1)/2. */
    int samePad() const { return static_cast<int>((effSize() - 1) / 2); }

    /** Output spatial extents: (in + 2*pad - effSize())/stride + 1. */
    std::int64_t outH() const;
    std::int64_t outW() const;

    /** Lower to a ConvProblem at the given batch size (validated). */
    ConvProblem toProblem(std::int64_t batch) const;
};

/** An ordered network plus batch size; see file comment. */
struct NetworkDef
{
    std::string name;      //!< Network label (e.g. "resnet18").
    std::int64_t batch = 1;
    std::vector<LayerDef> layers;

    NetworkDef() = default;

    /** Start a network from an input tensor of shape [c, h, w]. */
    NetworkDef(std::string net_name, std::int64_t c, std::int64_t h,
               std::int64_t w);

    /** Current cursor shape (input of the next appended layer). */
    struct Cursor
    {
        std::int64_t c = 1, h = 1, w = 1;
    };
    Cursor cursor() const { return cur_; }

    /**
     * Append a dense/grouped conv reading the cursor, "same" padding;
     * advances the cursor to the layer's output.
     */
    NetworkDef &conv(const std::string &layer_name, std::int64_t filters,
                     std::int64_t size, int stride = 1,
                     std::int64_t groups = 1);

    /**
     * Append a conv reading an *explicit* input shape (a residual /
     * downsample branch); the cursor is left untouched.
     */
    NetworkDef &branchConv(const std::string &layer_name,
                           std::int64_t filters, std::int64_t in_c,
                           std::int64_t in_hw, std::int64_t size,
                           int stride = 1);

    /** Append a raw LayerDef verbatim; advances the cursor. */
    NetworkDef &layer(const LayerDef &l);

    /**
     * Apply a pooling step to the cursor only (no layer appended; the
     * optimizer models conv-like ops). Darknet semantics:
     * out = (in + pad - size)/stride + 1 with pad defaulting to
     * size - 1, i.e. ceil-division by stride.
     */
    NetworkDef &pool(std::int64_t size, int stride, std::int64_t pad = -1);

    /** Collapse the cursor's spatial extents to 1x1 (global pool). */
    NetworkDef &globalPool();

    /** Lower every layer to a ConvProblem at this->batch. */
    std::vector<ConvProblem> lower() const;

    /** Validate batch plus every layer; throws FatalError. */
    void validate() const;

  private:
    Cursor cur_;
};

/**
 * Serialize to a single-line JSON object:
 *   {"name":..,"layers":[{"name":..,"kind":..,"k":..,"c":..,"h":..,
 *    "w":..,"size":..,"stride":..,"dilation":..,"groups":..,"pad":..},..]}
 * where h/w are the layer's *input* spatial extents. The batch is
 * deliberately not part of the payload — it travels beside the IR
 * (e.g. the RPC request's "batch" field), mirroring how a registered
 * name is paired with a batch.
 */
std::string networkDefToJson(const NetworkDef &def);

/** Inverse of networkDefToJson over the value @p v of a read line
 *  (the RPC request's "ir" member); returns false (and sets err) on a
 *  malformed payload. The parsed def has batch == 1. */
class JsonView;
bool networkDefFromJson(JsonView v, NetworkDef &def, std::string *err);

} // namespace mopt

#endif // MOPT_FRONTEND_NETWORK_DEF_HH
