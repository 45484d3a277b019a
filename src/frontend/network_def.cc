#include "frontend/network_def.hh"

#include "common/json.hh"
#include "common/logging.hh"
#include "common/string_util.hh"

namespace mopt {

const char *
layerKindName(LayerKind k)
{
    switch (k) {
      case LayerKind::Conv:
        return "conv";
      case LayerKind::Depthwise:
        return "depthwise";
      case LayerKind::Matmul:
        return "matmul";
      default:
        panic("layerKindName: bad kind");
    }
}

bool
layerKindFromName(const std::string &name, LayerKind &out)
{
    if (name == "conv")
        out = LayerKind::Conv;
    else if (name == "depthwise")
        out = LayerKind::Depthwise;
    else if (name == "matmul")
        out = LayerKind::Matmul;
    else
        return false;
    return true;
}

std::int64_t
LayerDef::outH() const
{
    return (in_h + 2 * pad - effSize()) / stride + 1;
}

std::int64_t
LayerDef::outW() const
{
    return (in_w + 2 * pad - effSize()) / stride + 1;
}

ConvProblem
LayerDef::toProblem(std::int64_t batch) const
{
    if (in_h + 2 * pad < effSize() || in_w + 2 * pad < effSize())
        fatal("layer " + name + ": kernel (size " + std::to_string(size) +
              ", dilation " + std::to_string(dilation) +
              ") does not fit the padded " + std::to_string(in_h) + "x" +
              std::to_string(in_w) + " input");
    ConvProblem p;
    p.name = name;
    p.n = batch;
    p.k = filters;
    p.c = in_c;
    p.r = size;
    p.s = size;
    p.h = outH();
    p.w = outW();
    p.stride = stride;
    p.dilation = dilation;
    p.groups = groups;
    p.validate();
    return p;
}

NetworkDef::NetworkDef(std::string net_name, std::int64_t c,
                       std::int64_t h, std::int64_t w)
    : name(std::move(net_name))
{
    if (c < 1 || h < 1 || w < 1)
        fatal("network " + name + ": input extents must be >= 1");
    cur_ = {c, h, w};
}

NetworkDef &
NetworkDef::conv(const std::string &layer_name, std::int64_t filters,
                 std::int64_t size, int stride, std::int64_t groups)
{
    LayerDef l;
    l.name = layer_name;
    l.kind = LayerKind::Conv;
    l.filters = filters;
    l.in_c = cur_.c;
    l.in_h = cur_.h;
    l.in_w = cur_.w;
    l.size = size;
    l.stride = stride;
    l.groups = groups;
    l.pad = l.samePad();
    return layer(l);
}

NetworkDef &
NetworkDef::branchConv(const std::string &layer_name, std::int64_t filters,
                       std::int64_t in_c, std::int64_t in_hw,
                       std::int64_t size, int stride)
{
    const Cursor saved = cur_;
    cur_ = {in_c, in_hw, in_hw};
    conv(layer_name, filters, size, stride);
    cur_ = saved;
    return *this;
}

NetworkDef &
NetworkDef::layer(const LayerDef &l)
{
    layers.push_back(l);
    cur_ = {l.filters, l.outH(), l.outW()};
    return *this;
}

NetworkDef &
NetworkDef::pool(std::int64_t size, int stride, std::int64_t pad)
{
    if (pad < 0)
        pad = size - 1;
    if (size < 1 || stride < 1)
        fatal("network " + name + ": pool size/stride must be >= 1");
    if (cur_.h + pad < size || cur_.w + pad < size)
        fatal("network " + name + ": pool window larger than the " +
              std::to_string(cur_.h) + "x" + std::to_string(cur_.w) +
              " tensor");
    cur_.h = (cur_.h + pad - size) / stride + 1;
    cur_.w = (cur_.w + pad - size) / stride + 1;
    return *this;
}

NetworkDef &
NetworkDef::globalPool()
{
    cur_.h = 1;
    cur_.w = 1;
    return *this;
}

std::vector<ConvProblem>
NetworkDef::lower() const
{
    if (batch < 1)
        fatal("network " + name + ": batch must be >= 1");
    if (layers.empty())
        fatal("network " + name + ": contains no conv-like layers");
    std::vector<ConvProblem> out;
    out.reserve(layers.size());
    for (const LayerDef &l : layers)
        out.push_back(l.toProblem(batch)); // validates each layer
    return out;
}

void
NetworkDef::validate() const
{
    lower();
}

std::string
networkDefToJson(const NetworkDef &def)
{
    std::string out = "{\"name\":\"";
    jsonAppendEscaped(out, def.name);
    out += "\",\"layers\":[";
    bool first = true;
    for (const LayerDef &l : def.layers) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"name\":\"";
        jsonAppendEscaped(out, l.name);
        out += "\",\"kind\":\"";
        out += layerKindName(l.kind);
        appendInt(out, "\",\"k\":", l.filters);
        appendInt(out, ",\"c\":", l.in_c);
        appendInt(out, ",\"h\":", l.in_h);
        appendInt(out, ",\"w\":", l.in_w);
        appendInt(out, ",\"size\":", l.size);
        appendInt(out, ",\"stride\":", l.stride);
        appendInt(out, ",\"dilation\":", l.dilation);
        appendInt(out, ",\"groups\":", l.groups);
        appendInt(out, ",\"pad\":", l.pad);
        out += '}';
    }
    out += "]}";
    return out;
}

namespace {

bool
fail(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg;
    return false;
}

} // namespace

bool
networkDefFromJson(JsonView v, NetworkDef &def, std::string *err)
{
    if (!v.isObject())
        return fail(err, "network IR: expected a JSON object");
    NetworkDef out;
    v.find("name").getString(out.name);
    const JsonView layers = v.find("layers");
    if (!layers.isArray())
        return fail(err, "network IR: missing \"layers\" array");
    std::size_t i = 0;
    for (const JsonView jl : layers) {
        const std::string where =
            "network IR layer " + std::to_string(i++);
        if (!jl.isObject())
            return fail(err, where + ": expected an object");
        LayerDef l;
        jl.find("name").getString(l.name);
        if (const JsonView kind = jl.find("kind")) {
            std::string kind_name;
            if (!kind.getString(kind_name) ||
                !layerKindFromName(kind_name, l.kind))
                return fail(err, where + ": bad \"kind\"");
        }
        std::int64_t stride = 1, dilation = 1, pad = -1;
        if (!jl.find("k").getInt(l.filters) ||
            !jl.find("c").getInt(l.in_c) ||
            !jl.find("h").getInt(l.in_h) ||
            !jl.find("w").getInt(l.in_w) ||
            !jl.find("size").getInt(l.size))
            return fail(err, where + ": missing k/c/h/w/size");
        // An optional member, when present, must be a whole number.
        const auto optional = [&](const char *key, std::int64_t &out) {
            const JsonView m = jl.find(key);
            return !m || m.getInt(out);
        };
        if (!optional("stride", stride))
            return fail(err, where + ": bad \"stride\"");
        if (!optional("dilation", dilation))
            return fail(err, where + ": bad \"dilation\"");
        if (!optional("groups", l.groups))
            return fail(err, where + ": bad \"groups\"");
        if (!optional("pad", pad))
            return fail(err, where + ": bad \"pad\"");
        l.stride = static_cast<int>(stride);
        l.dilation = static_cast<int>(dilation);
        l.pad = pad < 0 ? l.samePad() : static_cast<int>(pad);
        out.layers.push_back(l);
    }
    try {
        out.validate();
    } catch (const FatalError &e) {
        return fail(err, e.what());
    }
    def = std::move(out);
    return true;
}

} // namespace mopt
