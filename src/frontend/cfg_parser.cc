#include "frontend/cfg_parser.hh"

#include <fstream>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/string_util.hh"

namespace mopt {

namespace {

/** One "key=value" with the line it came from. */
struct KeyValue
{
    std::string key;
    std::string value;
    int line = 0;
};

/** One "[section]" and its body. */
struct Section
{
    std::string name;
    int line = 0;
    std::vector<KeyValue> kv;

    const KeyValue *find(const std::string &key) const
    {
        for (const KeyValue &e : kv)
            if (e.key == key)
                return &e;
        return nullptr;
    }
};

class CfgParser
{
  public:
    CfgParser(const std::string &text, std::string source)
        : text_(text), source_(std::move(source))
    {
    }

    NetworkDef run()
    {
        for (const Section &sec : splitSections())
            handleSection(sec);
        if (!net_.has_value() || net_->layers.empty())
            fatal(source_ + ": no [convolutional] or [connected] layers "
                            "found (is this a darknet .cfg?)");
        NetworkDef out = std::move(*net_);
        net_.reset();
        return out;
    }

  private:
    [[noreturn]] void fail(int line, const std::string &msg) const
    {
        fatal(source_ + ":" + std::to_string(line) + ": " + msg);
    }

    /** Lex the whole file into sections, validating line syntax. */
    std::vector<Section> splitSections() const
    {
        std::vector<Section> sections;
        std::istringstream in(text_);
        std::string raw;
        int line_no = 0;
        while (std::getline(in, raw)) {
            ++line_no;
            // Strip comments ('#' or ';', darknet style) and padding.
            const std::size_t cut = raw.find_first_of("#;");
            if (cut != std::string::npos)
                raw.erase(cut);
            const std::string line = trim(raw);
            if (line.empty())
                continue;
            if (line.front() == '[') {
                if (line.back() != ']' || line.size() < 3)
                    fail(line_no, "malformed section header \"" + line +
                                      "\"");
                sections.push_back(
                    {toLower(line.substr(1, line.size() - 2)), line_no,
                     {}});
                continue;
            }
            const std::size_t eq = line.find('=');
            if (eq == std::string::npos)
                fail(line_no, "expected key=value or [section], got \"" +
                                  line + "\"");
            KeyValue e;
            e.key = toLower(trim(line.substr(0, eq)));
            e.value = trim(line.substr(eq + 1));
            e.line = line_no;
            if (e.key.empty() || e.value.empty())
                fail(line_no, "empty key or value in \"" + line + "\"");
            if (sections.empty())
                fail(line_no, "key \"" + e.key +
                                  "\" appears before any [section]");
            sections.back().kv.push_back(e);
        }
        return sections;
    }

    std::int64_t parseInt(const KeyValue &e) const
    {
        std::size_t pos = 0;
        std::int64_t v = 0;
        try {
            v = std::stoll(e.value, &pos);
        } catch (const std::exception &) {
            pos = 0;
        }
        if (pos != e.value.size())
            fail(e.line, "key \"" + e.key + "\": expected an integer, got \"" +
                             e.value + "\"");
        return v;
    }

    std::int64_t getInt(const Section &sec, const std::string &key,
                        std::int64_t fallback) const
    {
        const KeyValue *e = sec.find(key);
        return e ? parseInt(*e) : fallback;
    }

    std::int64_t requireInt(const Section &sec, const std::string &key) const
    {
        const KeyValue *e = sec.find(key);
        if (!e)
            fail(sec.line, "[" + sec.name + "] is missing required key \"" +
                               key + "\"");
        return parseInt(*e);
    }

    void requirePositive(const Section &sec, const std::string &key,
                         std::int64_t v) const
    {
        if (v < 1) {
            const KeyValue *e = sec.find(key);
            fail(e ? e->line : sec.line, "[" + sec.name + "] key \"" + key +
                                             "\" must be >= 1, got " +
                                             std::to_string(v));
        }
    }

    void requireNet(const Section &sec) const
    {
        if (!net_)
            fail(sec.line, "[" + sec.name +
                               "] appears before [net] declared the input "
                               "width/height/channels");
    }

    void handleSection(const Section &sec)
    {
        if (sec.name == "net" || sec.name == "network")
            handleNet(sec);
        else if (sec.name == "convolutional" || sec.name == "conv")
            handleConvolutional(sec);
        else if (sec.name == "connected")
            handleConnected(sec);
        else if (sec.name == "maxpool")
            handleMaxpool(sec);
        else if (sec.name == "avgpool") {
            requireNet(sec);
            net_->globalPool();
        } else {
            logWarn(source_, ":", sec.line, ": skipping unknown section [",
                    sec.name, "] (shape propagation continues past it)");
        }
    }

    void handleNet(const Section &sec)
    {
        if (net_)
            fail(sec.line, "duplicate [net] section");
        const std::int64_t width = requireInt(sec, "width");
        const std::int64_t height = requireInt(sec, "height");
        const std::int64_t channels = requireInt(sec, "channels");
        requirePositive(sec, "width", width);
        requirePositive(sec, "height", height);
        requirePositive(sec, "channels", channels);
        const std::int64_t batch = getInt(sec, "batch", 1);
        requirePositive(sec, "batch", batch);
        net_.emplace(baseName(source_), channels, height, width);
        net_->batch = batch;
        // Every other [net] key (momentum, learning_rate, ...) is
        // training configuration with no bearing on layer shapes.
    }

    void handleConvolutional(const Section &sec)
    {
        requireNet(sec);
        const std::int64_t filters = requireInt(sec, "filters");
        requirePositive(sec, "filters", filters);
        const std::int64_t size = getInt(sec, "size", 1);
        const std::int64_t stride = getInt(sec, "stride", 1);
        const std::int64_t groups = getInt(sec, "groups", 1);
        const std::int64_t dilation = getInt(sec, "dilation", 1);
        requirePositive(sec, "size", size);
        requirePositive(sec, "stride", stride);
        requirePositive(sec, "groups", groups);
        requirePositive(sec, "dilation", dilation);
        // Darknet padding: pad=1 selects "same" padding (size/2);
        // otherwise an explicit padding= count (default 0).
        std::int64_t padding = getInt(sec, "padding", 0);
        if (getInt(sec, "pad", 0) != 0)
            padding = size / 2;
        warnUnknownKeys(sec, {"filters", "size", "stride", "pad",
                              "padding", "groups", "dilation",
                              "batch_normalize", "activation"});

        const NetworkDef::Cursor cur = net_->cursor();
        LayerDef l;
        l.name = layerName("conv");
        l.kind = groups == cur.c && groups == filters && groups > 1
                     ? LayerKind::Depthwise
                     : LayerKind::Conv;
        l.filters = filters;
        l.in_c = cur.c;
        l.in_h = cur.h;
        l.in_w = cur.w;
        l.size = size;
        l.stride = static_cast<int>(stride);
        l.dilation = static_cast<int>(dilation);
        l.groups = groups;
        l.pad = static_cast<int>(padding);
        wrapLayer(sec, l);
    }

    void handleConnected(const Section &sec)
    {
        requireNet(sec);
        const std::int64_t output = requireInt(sec, "output");
        requirePositive(sec, "output", output);
        warnUnknownKeys(sec, {"output", "activation", "batch_normalize"});

        // A fully-connected layer over the flattened [c, h, w] input
        // is a 1x1 conv over a [c*h*w, 1, 1] tensor.
        const NetworkDef::Cursor cur = net_->cursor();
        LayerDef l;
        l.name = layerName("fc");
        l.kind = LayerKind::Matmul;
        l.filters = output;
        l.in_c = cur.c * cur.h * cur.w;
        l.in_h = 1;
        l.in_w = 1;
        l.size = 1;
        wrapLayer(sec, l);
    }

    void handleMaxpool(const Section &sec)
    {
        requireNet(sec);
        const std::int64_t stride = getInt(sec, "stride", 1);
        const std::int64_t size = getInt(sec, "size", stride);
        requirePositive(sec, "stride", stride);
        requirePositive(sec, "size", size);
        const std::int64_t padding = getInt(sec, "padding", size - 1);
        warnUnknownKeys(sec, {"stride", "size", "padding"});
        try {
            net_->pool(size, static_cast<int>(stride), padding);
        } catch (const FatalError &e) {
            fail(sec.line, e.what());
        }
    }

    /** Append @p l, rewrapping validation errors with cfg context. */
    void wrapLayer(const Section &sec, LayerDef &l)
    {
        try {
            l.toProblem(net_->batch);
        } catch (const FatalError &e) {
            fail(sec.line, e.what());
        }
        net_->layer(l);
    }

    void warnUnknownKeys(const Section &sec,
                         std::initializer_list<const char *> known) const
    {
        for (const KeyValue &e : sec.kv) {
            bool ok = false;
            for (const char *k : known)
                ok = ok || e.key == k;
            if (!ok)
                logWarn(source_, ":", e.line, ": ignoring unknown key \"",
                        e.key, "\" in [", sec.name, "]");
        }
    }

    std::string layerName(const char *kind)
    {
        return std::string(kind) + std::to_string(layer_index_++);
    }

    static std::string baseName(const std::string &path)
    {
        const std::size_t slash = path.find_last_of('/');
        std::string base =
            slash == std::string::npos ? path : path.substr(slash + 1);
        if (base.size() > 4 && base.substr(base.size() - 4) == ".cfg")
            base.erase(base.size() - 4);
        return base.empty() ? "net" : base;
    }

    const std::string &text_;
    const std::string source_;
    std::optional<NetworkDef> net_;
    int layer_index_ = 0;
};

} // namespace

NetworkDef
parseCfgText(const std::string &text, const std::string &source)
{
    return CfgParser(text, source).run();
}

NetworkDef
parseCfgFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in.good())
        fatal("cannot open network config: " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return parseCfgText(buf.str(), path);
}

} // namespace mopt
