#include "store_dir.hh"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <system_error>

#include <unistd.h>

#include "util/hash.hh"

namespace osp
{

namespace fs = std::filesystem;

namespace
{

constexpr std::size_t trailerBytes = 8;
constexpr std::string_view pltDir = "plt";

void
appendLe64(std::string &out, std::uint64_t v)
{
    for (std::size_t i = 0; i < trailerBytes; ++i)
        out.push_back(static_cast<char>(v >> (8 * i)));
}

std::uint64_t
readLe64(std::string_view bytes)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < trailerBytes; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes[i]))
             << (8 * i);
    return v;
}

} // namespace

fs::path
openStoreDir(const std::string &path)
{
    fs::path dir(path);
    if (fs::is_regular_file(dir)) {
        throw RemovedStoreFormat(
            "'" + path +
            "' is a file; the single-file page-store format was "
            "removed. A store is now a directory: pass a new path "
            "(or delete the file) and re-run the sweep cold");
    }
    fs::create_directories(dir);
    return dir;
}

std::string
sealPayload(std::string_view payload)
{
    std::string out;
    out.reserve(payload.size() + trailerBytes);
    out.append(payload);
    appendLe64(out, stableHash64(payload));
    return out;
}

std::optional<std::string>
unsealPayload(std::string_view sealed)
{
    if (sealed.size() < trailerBytes)
        return std::nullopt;
    std::string_view payload =
        sealed.substr(0, sealed.size() - trailerBytes);
    if (readLe64(sealed.substr(payload.size())) !=
        stableHash64(payload))
        return std::nullopt;
    return std::string(payload);
}

std::optional<std::string>
readSealedFile(const fs::path &file)
{
    std::ifstream in(file, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (in.bad())
        return std::nullopt;
    return unsealPayload(bytes);
}

void
writeSealedFile(const fs::path &file, std::string_view payload)
{
    fs::create_directories(file.parent_path());
    // Hidden and pid-tagged: never a valid key, and two processes
    // writing the same file never share a temporary.
    std::string name(".");
    name += file.filename().string();
    name += '.';
    name += std::to_string(::getpid());
    name += ".tmp";
    fs::path tmp = file.parent_path() / name;
    std::string sealed = sealPayload(payload);
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out.write(sealed.data(),
                  static_cast<std::streamsize>(sealed.size()));
        out.close();
        if (!out) {
            std::error_code ec;
            fs::remove(tmp, ec);
            throw std::runtime_error("cannot write " + tmp.string());
        }
    }
    fs::rename(tmp, file);
}

std::string
PltArchive::key(std::string_view workload)
{
    if (workload.empty() || workload.front() == '.' ||
        workload.find('/') != std::string_view::npos)
        throw std::invalid_argument("bad workload name '" +
                                    std::string(workload) + "'");
    std::string k(pltDir);
    k += '/';
    k.append(workload);
    return k;
}

void
PltArchive::save(std::string_view workload, std::string_view profile)
{
    writeSealedFile(store_ / key(workload), profile);
}

std::optional<std::string>
PltArchive::load(std::string_view workload) const
{
    return readSealedFile(store_ / key(workload));
}

std::vector<PltArchiveEntry>
PltArchive::list() const
{
    std::vector<PltArchiveEntry> entries;
    std::error_code ec;
    for (const fs::directory_entry &e :
         fs::directory_iterator(store_ / pltDir, ec)) {
        std::string name = e.path().filename().string();
        if (!e.is_regular_file() || name.front() == '.')
            continue;
        std::optional<std::string> profile = readSealedFile(e.path());
        if (!profile)
            continue;
        PltArchiveEntry entry;
        entry.workload = std::move(name);
        entry.profileHash = stableHash64(*profile);
        entry.bytes = profile->size();
        entries.push_back(std::move(entry));
    }
    std::sort(entries.begin(), entries.end(),
              [](const PltArchiveEntry &a, const PltArchiveEntry &b) {
                  return a.workload < b.workload;
              });
    return entries;
}

bool
PltArchive::remove(std::string_view workload)
{
    return fs::remove(store_ / key(workload));
}

} // namespace osp
